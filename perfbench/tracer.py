"""Per-layer timing of the ``sperner`` package from outside it.

The tracer replaces selected public functions with timing wrappers. A
module binds names with ``from .x import y``, so a function can be reached
through several module attributes; every ``sperner.*`` module attribute
bound to a traced function gets the wrapper, so calls between modules are
timed as well. ``ThresholdWitness.verify`` is wrapped on its class.

Each call opens a span. A span's self time is its duration minus the time
of its child spans, so self times of all spans add up to the traced time
without double counting. The wrapper's own bookkeeping (clock reads, the
count hooks below) is kept out of every span and summed as overhead.
A function that calls itself directly is timed once, at its outermost
call; the inner calls belong to that span.

``bitset`` helpers are not wrapped: they run millions of times per op and
a wrapper would dominate their cost.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _tree_nodes(tree) -> int:
    """Inner nodes of a graph decomposition tree (``DecompNode``)."""
    count = 0
    stack = [tree]
    while stack:
        t = stack.pop()
        if hasattr(t, "partition"):
            count += 1
            stack.append(t.left)
            stack.append(t.right)
    return count


def _tree_depth(tree) -> int:
    """Gluing depth of a hypergraph decomposition tree (``HNode``/``HLeaf``).

    Computed here because ``sperner.hypergraph.tree_depth`` is not part of
    the interface the benchmark relies on.
    """
    best = 0
    stack = [(tree, 0)]
    while stack:
        t, d = stack.pop()
        if hasattr(t, "z"):
            stack.append((t.left, d + 1))
            stack.append((t.right, d + 1))
        else:
            best = max(best, d)
    return best


def _expression_tokens(expr) -> int:
    """Token count of a k-expression, as ``expression_length`` defines it:
    3 per leaf, 1 per union, 3 per relabel or add-edges node."""
    count = 0
    stack = [expr]
    while stack:
        e = stack.pop()
        if e is None:
            continue
        kind = type(e).__name__
        if kind == "Leaf":
            count += 3
        elif kind == "Union_":
            count += 1
            stack.append(e.left)
            stack.append(e.right)
        else:
            count += 3
            stack.append(e.sub)
    return count


# layer -> [(module, function name)]; ``ThresholdWitness.verify`` is added
# separately because it is a method.
LAYERS = {
    "graphs.find_induced": [("graphs", "find_induced")],
    "graphs.find_split_partition": [("graphs", "find_split_partition")],
    "decomposition": [("decomposition", f) for f in (
        "clique_sperner_partition", "independent_sperner_partition",
        "find_right_sperner_bipartition", "decompose_split_h_free",
        "decompose_split_hbar_free", "decompose_bigraph_2p3_free",
        "decompose_cobigraph", "tree_to_text")],
    "cliquewidth.build": [("cliquewidth", f) for f in (
        "build_from_tree", "build_split_h_free", "build_split_hbar_free",
        "build_bigraph_2p3_free", "build_cobigraph")],
    "cliquewidth.evaluate": [("cliquewidth", "evaluate")],
    "cliquewidth.format": [("cliquewidth", "format_expression")],
    "cliquewidth.parse": [("cliquewidth", "parse_expression")],
    "domination.dp": [("domination", "dp_dominating_set")],
    "domination.pipeline": [("domination", "solve_h_free_split"),
                            ("domination", "split_reduce")],
    "domination.brute_force": [("domination", "brute_force")],
    "threshold.asummability": [("threshold", "k_asummability_witness")],
    "threshold.dependence_table": [("threshold", "dependence_table")],
    "threshold.witness": [("threshold", "threshold_witness")],
    "threshold.verify": [],
    "lp.solve": [("lp", "solve_nonnegative_feasibility")],
    "hypergraph.dual_masks": [("hypergraph", "dual_masks"),
                              ("hypergraph", "maximal_independent_masks"),
                              ("hypergraph", "transversal")],
    "hypergraph.predicates": [("hypergraph", f) for f in (
        "is_sperner", "is_dually_sperner", "is_one_sperner", "is_conformal",
        "one_sperner_violation")],
    "hypergraph.decompose": [("hypergraph", "decompose")],
    "hypergraph.recompose": [("hypergraph", "recompose")],
    "textio": [("textio", f) for f in (
        "read_hypergraph", "write_hypergraph", "read_graph", "write_graph",
        "threshold_witness_to_text", "asummability_witness_to_text")],
    "cli": [("cli", f) for f in (
        "main", "build_parser", "cmd_hyp_check", "cmd_decompose", "cmd_cwd",
        "cmd_eval", "cmd_dominate")],
    "generators": [("generators", f) for f in (
        "random_one_sperner", "random_bigraph_2p3_free", "random_cobigraph")],
}

_DECOMPOSERS = {"decompose_split_h_free", "decompose_split_hbar_free",
                "decompose_bigraph_2p3_free", "decompose_cobigraph"}


class Tracer:
    """Installs and removes the wrappers and accumulates span data.

    ``self_s[layer]`` and ``calls[function]`` accumulate until ``reset``;
    ``counts`` holds the workload counters filled by the count hooks.
    """

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module object
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.depth_max = 0
        self.overhead_s = 0.0
        self._stack: list = []
        self._restore: list = []

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.depth_max = 0
        self.overhead_s = 0.0

    # -- count hooks, run after the span has closed -------------------------

    def _hook(self, name: str):
        if name in _DECOMPOSERS:
            return lambda args, result: self._add("tree_nodes", _tree_nodes(result))
        if name == "build_from_tree":
            return lambda args, result: self._add("expression_tokens",
                                                  _expression_tokens(result))
        if name == "dual_masks":
            return lambda args, result: self._add("dual_sets", len(result))
        if name == "solve_nonnegative_feasibility":
            return lambda args, result: self._add("lp_rows", len(args[0]))
        if name == "decompose":
            return lambda args, result: self._depth(_tree_depth(result))
        return None

    def _add(self, key: str, value: int):
        self.counts[key] += value

    def _depth(self, depth: int):
        self.depth_max = max(self.depth_max, depth)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, orig, layer: str, name: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        hook = self._hook(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:
                return orig(*args, **kwargs)
            t_enter = clock()
            frame = [wrapper, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                self_s[layer] += (t1 - t0) - frame[1]
                calls[name] += 1
                if ok and hook is not None:
                    hook(args, result)
                t_exit = clock()
                tracer.overhead_s += (t0 - t_enter) + (t_exit - t1)
                if stack:
                    stack[-1][1] += t_exit - t_enter
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, entries in LAYERS.items():
            for mod, name in entries:
                orig = getattr(self.modules[mod], name)
                wrapped[id(orig)] = (orig, self._wrap(orig, layer, name))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = self.modules["threshold"].ThresholdWitness
        orig = cls.verify
        self._restore.append((cls, "verify", orig))
        cls.verify = self._wrap(orig, "threshold.verify", "verify")

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def span_total(self) -> float:
        return sum(self.self_s.values())

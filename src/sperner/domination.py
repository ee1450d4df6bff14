"""Exact solvers for dominating, total dominating, and connected dominating
sets.

Routes:

* ``brute_force`` scans vertex subsets in increasing size (desk-scale
  oracle; also establishes infeasibility, which happens exactly for total
  domination with an isolated vertex and connected domination of a
  disconnected graph).
* ``dp_dominating_set`` runs a label-state dynamic program over a
  k-expression: per subtree and label class it tracks whether the class
  contains a chosen vertex and whether all its vertices are dominated so
  far; add-edges updates domination flags, relabel merges classes, union
  convolves tables. Exact with at most 4^k states per node.
* ``split_reduce`` derives the total/connected answers from a minimum
  dominating set on a connected split graph: a minimum dominating set
  inside the clique side always exists, it is connected, and it is total
  unless it has size one (then any neighbor joins it).
* ``solve_h_free_split`` is the full pipeline for H-free split graphs:
  per component, collapse clique vertices with equal independent-side
  neighborhoods, drop those whose neighborhood is strictly contained in
  another's (gamma is preserved), decompose the clique-Sperner residue,
  build a 5-expression, run the dynamic program, and lift the witness
  back through the reductions. Membership costs a degree-sequence split
  test (Hammer and Simeone) and an O(|K|^2) pair test: H has a single
  split partition (middles in K, ends in I), so g has an induced H iff
  two clique vertices have independent-side neighborhoods differing by
  >= 2 both ways, whichever split partition of g is used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .bitset import bits, is_connected, mask_of, popcount
from .cliquewidth import (KExpression, Leaf, Relabel, Union_,
                          build_from_tree, evaluate, max_label)
from .decomposition import (decompose_split_h_free, labeled_h_witness,
                            pattern_witness)
# find_induced is not called here; it stays bound because perfbench's
# tracer test expects this module among the aliases it rebinds
from .graphs import (Graph, LabeledSplitGraph, find_induced,  # noqa: F401
                     find_split_partition)

VARIANTS = ("dominating", "total", "connected")


class DominationError(ValueError):
    pass


@dataclass(frozen=True)
class DominationResult:
    variant: str
    size: Optional[int]
    witness: Optional[frozenset]
    infeasible: bool = False

    def __post_init__(self):
        if not self.infeasible and self.size != len(self.witness or ()):
            raise DominationError("size must match the witness")


def is_dominating(g: Graph, dset, variant: str = "dominating") -> bool:
    full = (1 << g.n) - 1
    if variant == "dominating":
        cover = 0
        for v in dset:
            cover |= g.adj[v] | (1 << v)
        return cover == full
    if variant == "total":
        cover = 0
        for v in dset:
            cover |= g.adj[v]
        return cover == full
    if variant == "connected":
        return (is_dominating(g, dset, "dominating")
                and is_connected(list(g.adj), mask_of(dset)))
    raise DominationError(f"unknown variant {variant!r}")


def brute_force(g: Graph, variant: str, cap: int = 20) -> DominationResult:
    """Exact minimum by subset enumeration in increasing size.

    Total domination is infeasible iff the graph has an isolated vertex;
    connected domination iff the graph is disconnected.
    """
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    if g.n > cap:
        raise DominationError(f"brute force capped at {cap} vertices")
    if variant == "total" and any(g.adj[v] == 0 for v in range(g.n)):
        return DominationResult(variant, None, None, infeasible=True)
    if variant == "connected" and not g.is_connected():
        return DominationResult(variant, None, None, infeasible=True)
    for size in range(g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            if is_dominating(g, comb, variant):
                return DominationResult(variant, size, frozenset(comb))
    raise DominationError("feasible variant found no dominating set")


# ---------------------------------------------------------------------------
# Dynamic program over k-expressions
# ---------------------------------------------------------------------------

def dp_dominating_set(e: KExpression) -> DominationResult:
    """Minimum dominating set of the graph a k-expression evaluates to.

    State per subtree: (selected-mask, dominated-mask) over label classes,
    where a label's dominated bit means every current vertex of that class
    is dominated; empty classes count as dominated. Values are
    (size, witness) minimized lexicographically, so the result is
    deterministic.
    """
    value = evaluate(e)  # validates the expression
    k = max(1, max_label(e))
    full = (1 << k) - 1
    table = _dp(e, k, full)
    best = None
    for (sel, dom), (size, wit) in table.items():
        if dom == full:
            cand = (size, wit)
            if best is None or cand < best:
                best = cand
    if best is None or not _value_dominated_by(value, best[1]):
        raise DominationError("dominating set DP found no verified witness")
    return DominationResult("dominating", best[0], frozenset(best[1]))


def _value_dominated_by(value, witness) -> bool:
    adj = {v: set() for v in value.vertices}
    for pair in value.edges:
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)
    covered = set()
    for v in witness:
        covered.add(v)
        covered |= adj[v]
    return covered == set(value.vertices)


def _merge(table: dict, key: tuple, size: int, wit: tuple):
    cur = table.get(key)
    if cur is None or (size, wit) < cur:
        table[key] = (size, wit)


def _dp(e: KExpression, k: int, full: int) -> dict:
    if isinstance(e, Leaf):
        b = 1 << (e.label - 1)
        return {
            (b, full): (1, (e.vertex,)),       # select: the class is dominated
            (0, full ^ b): (0, ()),            # skip: the class is not
        }
    if isinstance(e, Union_):
        t1 = _dp(e.left, k, full)
        t2 = _dp(e.right, k, full)
        out: dict = {}
        for (s1, d1), (n1, w1) in t1.items():
            for (s2, d2), (n2, w2) in t2.items():
                _merge(out, (s1 | s2, d1 & d2), n1 + n2, tuple(sorted(w1 + w2, key=str)))
        return out
    if isinstance(e, Relabel):
        src = 1 << (e.src - 1)
        dst = 1 << (e.dst - 1)
        out = {}
        for (s, d), (n, w) in _dp(e.sub, k, full).items():
            s2 = ((s | dst) if s & src else s) & ~src
            # dst merges both classes: dominated iff both were; src becomes
            # empty, hence dominated
            if (d & src) and (d & dst):
                d2 = d | src | dst
            else:
                d2 = (d | src) & ~dst
            _merge(out, (s2, d2), n, w)
        return out
    # AddEdges: a selected class dominates the whole other class
    bi = 1 << (e.i - 1)
    bj = 1 << (e.j - 1)
    out = {}
    for (s, d), (n, w) in _dp(e.sub, k, full).items():
        d2 = d
        if s & bi:
            d2 |= bj
        if s & bj:
            d2 |= bi
        _merge(out, (s, d2), n, w)
    return out


# ---------------------------------------------------------------------------
# Split-graph reductions
# ---------------------------------------------------------------------------

def _kside_minimum_dominating(g: Graph, K: frozenset, I: frozenset,
                              res: DominationResult) -> frozenset:
    """Move a minimum dominating set ``res`` of a connected split graph
    inside K.

    Each independent-side member is swapped for one of its clique-side
    neighbors, which preserves domination because K is a clique.
    """
    witness = set(res.witness)
    for v in sorted(witness):
        if v in I:
            repl = min(u for u in bits(g.adj[v]) if u in K)
            witness.discard(v)
            witness.add(repl)
    return frozenset(witness)


def split_reduce(g: Graph, variant: str,
                 gamma_solver: Optional[Callable[[Graph], DominationResult]] = None
                 ) -> DominationResult:
    """Total/connected domination on a connected split graph via a minimum
    dominating set: gamma_c = gamma always, gamma_t = max(gamma, 2).

    A universal vertex is detected directly before anything else; the
    generic path moves a minimum dominating set into the clique side,
    where it induces a connected (and, at size two or more, total)
    dominating set.
    """
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    part = find_split_partition(g)
    if part is None:
        raise DominationError("graph is not split")
    if g.n < 2 or not g.is_connected():
        raise DominationError("split reductions need a connected graph, n >= 2")
    if gamma_solver is None:
        gamma_solver = lambda gg: brute_force(gg, "dominating")
    full = (1 << g.n) - 1
    universal = [v for v in range(g.n) if g.adj[v] | (1 << v) == full]
    if universal:
        dstar: frozenset = frozenset({universal[0]})
    else:
        K, I = part
        dstar = _kside_minimum_dominating(g, K, I, gamma_solver(g))
    witness = dstar
    if variant == "total" and len(dstar) == 1:
        u = next(iter(dstar))
        witness = frozenset({u, min(bits(g.adj[u]))})
    if not is_dominating(g, witness, variant):
        raise DominationError(f"{variant} witness fails verification")
    return DominationResult(variant, len(witness), witness)


# ---------------------------------------------------------------------------
# The H-free split pipeline
# ---------------------------------------------------------------------------

def is_h_free_split(g: Graph) -> bool:
    """Whether g is split and H-free: the pair test of
    ``labeled_h_witness`` on the partition found by the degree sequence."""
    part = find_split_partition(g)
    return part is not None and labeled_h_witness(LabeledSplitGraph(g, *part)) is None


def solve_h_free_split(g: Graph, variant: str) -> DominationResult:
    """Exact domination for H-free split graphs via clique-width.

    Per connected component: reduce the clique side to one representative
    per independent-side neighborhood and drop strictly dominated ones
    (each such deletion preserves gamma); the residue is clique-Sperner
    and H-free, so it has a 5-expression, on which the dominating-set
    dynamic program runs. The witness is pushed into the clique side, so
    it dominates the deleted vertices, and the total/connected variants
    follow the connected-split reductions.

    H-freeness is the O(|K|^2) pair test on the split partition found by
    the degree sequence: H has exactly one split partition, so under any
    split partition of g an induced H is two clique vertices whose
    independent-side neighborhoods differ by >= 2 both ways. The 6-vertex
    pattern search only runs after the test has found an H, to report it.
    """
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    part = find_split_partition(g)
    if part is None:
        raise DominationError("graph is not split")
    w = pattern_witness(LabeledSplitGraph(g, *part), labeled_h_witness, "H")
    if w is not None:
        raise DominationError(f"graph contains an induced H: {w}")
    comps = g.components()
    if variant == "total" and any(popcount(c) == 1 for c in comps):
        return DominationResult(variant, None, None, infeasible=True)
    if variant == "connected" and len(comps) > 1:
        return DominationResult(variant, None, None, infeasible=True)
    size = 0
    witness: set = set()
    for comp in comps:
        if popcount(comp) == 1:
            witness |= set(bits(comp))
            size += 1
            continue
        csize, cwit = _solve_component(g, comp, variant)
        size += csize
        witness |= cwit
    if not is_dominating(g, witness, variant):
        raise DominationError(f"{variant} witness fails verification")
    return DominationResult(variant, size, frozenset(witness))


def _solve_component(g: Graph, comp: int, variant: str) -> tuple[int, set]:
    sub, ids = g.induced_with_map(bits(comp))
    K, I = find_split_partition(sub)
    imask = mask_of(I)
    # one representative per clique-side neighborhood
    by_hood: dict[int, int] = {}
    for v in sorted(K):
        by_hood.setdefault(sub.adj[v] & imask, v)
    # drop representatives whose neighborhood is strictly inside another's
    kept = []
    for hood, v in by_hood.items():
        if not any(hood != h2 and hood & h2 == hood for h2 in by_hood):
            kept.append(v)
    residue_vs = sorted(set(kept) | I)
    res, rids = sub.induced_with_map(residue_vs)
    rpos = {v: i for i, v in enumerate(rids)}
    rK = frozenset(rpos[v] for v in kept)
    rI = frozenset(rpos[v] for v in I)
    ls = LabeledSplitGraph(res, rK, rI)
    expr = build_from_tree(decompose_split_h_free(ls))
    gamma = dp_dominating_set(expr)
    # move the witness into the clique side of the residue, then lift
    dstar = _kside_minimum_dominating(res, rK, rI, gamma)
    comp_witness = {rids[v] for v in dstar}
    csize = len(comp_witness)
    if variant == "total" and csize == 1:
        u = next(iter(comp_witness))
        comp_witness.add(min(bits(sub.adj[u])))
        csize = 2
    return csize, {ids[v] for v in comp_witness}

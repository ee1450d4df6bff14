"""The four workloads: seeded inputs, the CLI calls of one op, and checks.

A workload's inputs are drawn once per run from ``random.Random`` seeded
with the workload name and the benchmark seed, and the run cycles through
them in order. Each input family has one fixed size, and where the number
of hyperedges varies it is fixed too, by redrawing: the random structure is
all that depends on the seed. A spread of sizes within one workload would
make the latency percentiles depend on which sizes a seed happens to put
near them; at one size they hold within a few percent from seed to seed.
Each workload yields its ops one at a time, so that the set-up can be
timed in short pieces.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

import checks


@dataclass
class Op:
    """One closed-loop request: one or more CLI calls on generated files.

    ``steps`` are argv lists; ``"{prev}"`` in a step names ``prev_path``,
    where the previous step's standard output is written. ``check`` gets
    one (exit code, stdout) pair per step and raises ``checks.CheckError``.
    """
    label: str
    steps: list
    check: object
    prev_path: str = ""


class Inputs:
    """Draws inputs through ``sperner.generators`` and writes their files.

    ``kept`` counts the random 1-Sperner hypergraphs that end up in an
    input, for the traced acceptance ratio. ``rejected_s`` is the time
    spent on draws that the benchmark's size filter threw away; the set-up
    time leaves it out, because how many draws a seed needs is chance.
    """

    def __init__(self, sp, rng: random.Random, workdir: str):
        self.sp = sp
        self.rng = rng
        self.workdir = workdir
        self.kept = 0
        self.files = 0
        self.rejected_s = 0.0

    def one_sperner(self, n: int, m: int | None = None):
        """A random 1-Sperner hypergraph on n vertices, redrawn until it has
        m hyperedges (if m is given)."""
        while True:
            t0 = time.perf_counter()
            h = self.sp.generators.random_one_sperner(n, self.rng)
            if m is None or h.m == m:
                self.kept += 1
                return h
            self.rejected_s += time.perf_counter() - t0

    def write(self, text: str, suffix: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"{self.files}{suffix}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def graph(self, g) -> str:
        return self.write(self.sp.textio.write_graph(g), ".graph")

    def hypergraph(self, h) -> str:
        return self.write(self.sp.textio.write_hypergraph(h), ".hyp")


# ---------------------------------------------------------------------------
# split-dominate: the H-free split domination pipeline
# ---------------------------------------------------------------------------

SPLIT_NV, SPLIT_M = 12, 7          # split graphs on 19 vertices
# share of disconnected graphs among the split graphs of random_one_sperner(12)
# draws with 7 hyperedges: 0.396 +- 0.006 over 6,075 graphs
SPLIT_DISCONNECTED = 0.40


def split_dominate(inp: Inputs, count: int):
    """Connected graphs cost about twice as much as disconnected ones, where
    total and connected domination are infeasible. The ops hold the two
    kinds in the generator's own proportion, spread evenly, so the
    percentiles do not move with the share a seed happens to draw. Graphs
    are taken in draw order; a graph of the kind not wanted yet waits in
    its pool."""
    split_of = lambda h: inp.sp.graphs.edge_clique_split_of(h).g
    pools = {True: [], False: []}      # connected -> graphs waiting
    for i in range(count):
        connected = int((i + 1) * SPLIT_DISCONNECTED) == int(i * SPLIT_DISCONNECTED)
        while not pools[connected]:
            g = split_of(inp.one_sperner(SPLIT_NV, SPLIT_M))
            pools[g.is_connected()].append(g)
        g = pools[connected].pop(0)
        n, edges = g.n, tuple(g.edges())
        yield Op(f"dominate split n={n}", [["dominate", inp.graph(g)]],
                 lambda res, n=n, edges=edges: checks.check_dominate(n, edges, *res[0]))
    inp.kept -= len(pools[True]) + len(pools[False])


# ---------------------------------------------------------------------------
# class-cwd: 5-expressions of all four classes, checked by evaluation
# ---------------------------------------------------------------------------

CWD_NV, CWD_M = 12, 6              # split graphs on 18 vertices
CWD_BIGRAPH = 20                   # at most 20 vertices in the two bigraph classes
CWD_KINDS = ("split-H", "split-Hbar", "bigraph", "cobigraph")


def class_cwd(inp: Inputs, count: int):
    graphs, gen = inp.sp.graphs, inp.sp.generators
    for _ in range(count):
        h = inp.one_sperner(CWD_NV, CWD_M)
        gs = (graphs.edge_clique_split_of(h).g, graphs.vertex_clique_split_of(h).g,
              gen.random_bigraph_2p3_free(CWD_BIGRAPH, inp.rng).g,
              gen.random_cobigraph(CWD_BIGRAPH, inp.rng))
        inp.kept += 2  # each bigraph holds one accepted 1-Sperner draw
        steps, expected = [], []
        for kind, g in zip(CWD_KINDS, gs):
            path = inp.graph(g)
            steps += [["cwd", path, "--kind", kind], ["eval", "{prev}"]]
            expected.append((g.n, tuple(g.edges())))
        yield Op(f"cwd sizes={[g.n for g in gs]}", steps,
                 lambda res, expected=expected: _check_cwd(expected, res),
                 prev_path=os.path.join(inp.workdir, "expr"))


def _check_cwd(expected, res):
    for i, (n, edges) in enumerate(expected):
        checks.check_cwd_roundtrip(n, edges, *res[2 * i], *res[2 * i + 1])


# ---------------------------------------------------------------------------
# hyp-check: threshold and asummability on two input families
# ---------------------------------------------------------------------------

HYP_ONE_SPERNER = (9, 5)           # (n, m): threshold, the 4^n search exhausts
HYP_PLANTED = (14, 21)             # (n, m): not threshold, LP and dualization


def planted_non_threshold(sp, n: int, m: int, rng: random.Random):
    """A Sperner family on n vertices with at most m hyperedges that is not
    2-asummable, hence not threshold.

    It holds {a,b} and {c,d}, while {a,c} and {b,d} stay independent: the
    other hyperedges have at least three vertices and are incomparable
    with every hyperedge so far, so the two pairs stay minimal and
    {a,b} + {c,d} = {a,c} + {b,d} is a 2-summability witness.
    """
    a, b, c, d = rng.sample(range(n), 4)
    masks = [1 << a | 1 << b, 1 << c | 1 << d]
    for _ in range(50 * m):
        if len(masks) >= m:
            break
        e = sum(1 << v for v in rng.sample(range(n), rng.randint(3, max(3, n // 2))))
        if not any(f & e in (e, f) for f in masks):
            masks.append(e)
    return sp.hypergraph.Hypergraph.from_masks(range(n), masks)


def hyp_check(inp: Inputs, count: int):
    for i in range(count):
        one_sperner = i % 2 == 0
        if one_sperner:
            h = inp.one_sperner(*HYP_ONE_SPERNER)
        else:
            h = planted_non_threshold(inp.sp, *HYP_PLANTED, inp.rng)
        n, masks = h.n, tuple(h.edge_masks)
        family = "one-sperner" if one_sperner else "planted"
        yield Op(f"hyp-check {family} n={n} m={len(masks)}",
                 [["hyp-check", inp.hypergraph(h)]],
                 lambda res, n=n, masks=masks, one=one_sperner:
                 checks.check_hyp_check(n, masks, one, *res[0]))


# ---------------------------------------------------------------------------
# glue-decompose: gluing decomposition of 1-Sperner hypergraphs
# ---------------------------------------------------------------------------

GLUE_N = 150


def glue_decompose(inp: Inputs, count: int):
    for _ in range(count):
        h = inp.one_sperner(GLUE_N)
        yield Op(f"decompose n={h.n} m={h.m}", [["decompose", inp.hypergraph(h)]],
                 lambda res, n=h.n, masks=h.edge_masks:
                 checks.check_decompose(n, masks, *res[0]))


# name -> (generator of ops, distinct inputs per run); a pass over the
# inputs takes about 20 s at the parent commit of the benchmark
WORKLOADS = {
    "split-dominate": (split_dominate, 800),
    "class-cwd": (class_cwd, 240),
    "hyp-check": (hyp_check, 480),
    "glue-decompose": (glue_decompose, 120),
}

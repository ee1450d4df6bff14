"""Seeded random instance generators and exhaustive small-case enumerators.

Randomness comes from ``random.Random`` (Mersenne Twister), which is
stable across platforms, so every generated instance is reproducible from
its seed. Generators used by the verification sweeps:

* random 1-Sperner hypergraphs grown by random gluing trees, resampling
  any gluing that the gluing lemma rules out;
* in-class split graphs / bigraphs / cobigraphs obtained from those
  hypergraphs through the incidence constructions, with rejection on the
  class predicates where membership is not automatic;
* exhaustive enumerators: all labeled graphs on n vertices, all Sperner
  families (antichains) over n vertices as family bitmaps, all hyperedge
  families of bounded size, all split/bipartite neighborhood structures
  (complete up to isomorphism), and all 1-Sperner hypergraphs with
  |V| + |E| bounded.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .bitset import bits
from .decomposition import bigraph_two_p3_witness
# find_induced is not called here; it stays bound because perfbench's
# tracer test expects this module among the aliases it rebinds
from .graphs import (Graph, LabeledBigraph, LabeledSplitGraph,  # noqa: F401
                     bigraph_of, edge_clique_split_of, find_induced,
                     vertex_clique_split_of)
from .hypergraph import Hypergraph, _glue_masks, is_one_sperner


def random_one_sperner(n: int, rng: random.Random) -> Hypergraph:
    """A random 1-Sperner hypergraph on vertex ids 0..n-1.

    Grown as a random gluing tree: a hypergraph on n >= 1 vertices is the
    gluing of random left/right parts whose sizes sum to n - 1. By the
    gluing lemma (``sperner.hypergraph``), a gluing of two 1-Sperner parts
    fails to be 1-Sperner exactly when the left part has its full vertex
    set as a hyperedge and the right part has the empty hyperedge; such
    draws are resampled before they are glued. Zero-vertex leaves carry
    the empty hyperedge with probability 0.6. Each part spans a
    contiguous id range, with z between the two, so a gluing lifts the
    right part's masks by one shift and the left part's not at all.
    """

    def gen(lo: int, hi: int) -> Hypergraph:
        nv = hi - lo
        if nv == 0:
            if rng.random() < 0.6:
                return Hypergraph([], [set()])
            return Hypergraph([], [])
        for _ in range(200):
            n1 = rng.randint(0, nv - 1)
            z = lo + n1
            h1 = gen(lo, z)
            h2 = gen(z + 1, hi)
            v1 = (1 << n1) - 1
            if not (v1 in h1.edge_masks and 0 in h2.edge_masks):
                return Hypergraph.from_masks(range(lo, hi), _glue_masks(
                    h1.edge_masks, [f << (n1 + 1) for f in h2.edge_masks], v1, 1 << n1))
        raise RuntimeError("failed to grow a 1-Sperner gluing")

    return gen(0, n)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _sized_one_sperner(target_n: int, rng: random.Random) -> Hypergraph:
    """A random 1-Sperner hypergraph with 1 <= |V| + |E| <= target_n,
    redrawn until it fits."""
    for _ in range(400):
        nv = rng.randint(0, max(0, target_n - 1))
        h = random_one_sperner(nv, rng)
        if 1 <= h.n + h.m <= target_n:
            return h
    raise RuntimeError("could not hit the size budget")


def random_split_h_free(target_n: int, rng: random.Random) -> LabeledSplitGraph:
    """A random H-free clique-Sperner split graph with at most target_n vertices.

    Edge-clique split graphs of 1-Sperner hypergraphs are exactly this
    class, so no rejection on the class predicates is needed; only the
    size |V| + |E| is controlled by redrawing.
    """
    return edge_clique_split_of(_sized_one_sperner(target_n, rng))


def random_split_hbar_free(target_n: int, rng: random.Random) -> LabeledSplitGraph:
    """A random co-H-free independent-Sperner split graph (vertex-clique route)."""
    return vertex_clique_split_of(_sized_one_sperner(target_n, rng))


def random_bigraph_2p3_free(target_n: int, rng: random.Random) -> LabeledBigraph:
    """A random 2P3-free right-Sperner bigraph.

    Bigraphs of 1-Sperner hypergraphs are right-Sperner and contain no 2P3
    with middle vertices on the hyperedge side, but can contain one with
    middle vertices on the vertex side; those are rejected by the exact
    pair test ``bigraph_two_p3_witness``.
    """
    for _ in range(4000):
        nv = rng.randint(0, max(0, target_n - 1))
        h = random_one_sperner(nv, rng)
        if not 1 <= h.n + h.m <= target_n:
            continue
        lb = bigraph_of(h)
        if bigraph_two_p3_witness(lb) is None:
            return lb
    raise RuntimeError("rejection sampling failed for 2P3-free bigraphs")


def random_cobigraph(target_n: int, rng: random.Random) -> Graph:
    """A random co-2P3-free cobipartite graph whose complement is right-Sperner."""
    lb = random_bigraph_2p3_free(target_n, rng)
    return lb.g.complement()


# ---------------------------------------------------------------------------
# Exhaustive enumerators
# ---------------------------------------------------------------------------

def labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])


def antichain_bitmaps(n: int) -> Iterator[int]:
    """All Sperner families over n vertices as family bitmaps (bit e for the
    hyperedge mask e).

    Includes the empty family and the family {{}}. DFS over subset masks
    in increasing order with precomputed incomparability bitmaps.
    """
    size = 1 << n
    incomp = [0] * size
    for i in range(size):
        m = 0
        for j in range(i + 1, size):
            if (i & j) != i and (i & j) != j:
                m |= 1 << j
        incomp[i] = m
    stack = [((1 << size) - 1, 0)]
    while stack:
        allowed, chosen = stack.pop()
        yield chosen
        a = allowed
        while a:
            b = a & -a
            i = b.bit_length() - 1
            a ^= b
            stack.append((allowed & incomp[i] & -(b << 1), chosen | (1 << i)))


def hyperedge_families(n: int, max_m: int) -> Iterator[tuple[int, ...]]:
    """All families of at most max_m distinct hyperedge masks over n vertices."""
    for m in range(max_m + 1):
        yield from itertools.combinations(range(1 << n), m)


def one_sperner_hypergraphs(max_total: int) -> Iterator[Hypergraph]:
    """All 1-Sperner hypergraphs with |V| + |E| <= max_total.

    Every H-free clique-Sperner split graph on at most max_total vertices
    is the edge-clique split graph of exactly one of these, so iterating
    them covers that graph class (and, after rejection, the bigraph and
    cobigraph classes) exhaustively up to isomorphism.
    """
    for n in range(max_total + 1):
        for masks in hyperedge_families(n, max_total - n):
            h = Hypergraph.from_masks(range(n), masks)
            if is_one_sperner(h):
                yield h


def _side_structures(n: int, clique: bool) -> Iterator[tuple[Graph, frozenset, frozenset]]:
    """(g, low, high) for graphs on n vertices with sides low = {0..i-1}
    and high = {i..n-1}, for every i: the high side's neighbourhoods in
    low are drawn as multisets, and high is a clique when ``clique``
    holds. Exact duplicates (same labeled graph) are skipped."""
    seen = set()
    for k in range(n + 1):
        low, high = range(n - k), range(n - k, n)
        full = sum(1 << v for v in high) if clique else 0
        for hoods in itertools.combinations_with_replacement(range(1 << len(low)), k):
            adj = [0] * len(low) + [full & ~(1 << v) for v in high]
            for v, hood in zip(high, hoods):
                adj[v] |= hood
                for u in bits(hood):
                    adj[u] |= 1 << v
            key = tuple(adj)
            if key not in seen:
                seen.add(key)
                yield Graph.from_adj(adj), frozenset(low), frozenset(high)


def split_graph_structures(n: int) -> Iterator[LabeledSplitGraph]:
    """Split graphs on n vertices via clique-side neighborhood multisets.

    I = {0..i-1}, K = {i..n-1}; every split graph on n vertices is
    isomorphic to at least one emitted structure.
    """
    return (LabeledSplitGraph(g, K=high, I=low) for g, low, high in _side_structures(n, True))


def bigraph_structures(n: int) -> Iterator[LabeledBigraph]:
    """Bipartite graphs on n vertices via B-side neighborhood multisets."""
    return (LabeledBigraph(g, low, high) for g, low, high in _side_structures(n, False))

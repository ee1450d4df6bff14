"""Independent brute-force oracles used to pin expected values.

Everything here is written directly from definitions by exhaustive
enumeration, deliberately sharing no code with the library paths it
checks: transversals by scanning all subsets, conformality by scanning all
vertex sets, 2-asummability by enumerating set pairs, regularity by
scanning every set for every vertex pair, thresholdness by enumerating
small integer weight vectors, domination by subset scan, and
induced-subgraph containment by trying all injections.
"""

from __future__ import annotations

import itertools

from sperner.hypergraph import Hypergraph
from sperner.graphs import Graph


def brute_dual_masks(masks, n):
    """Minimal transversals by scanning all 2^n subsets."""
    edges = list(masks)
    if any(e == 0 for e in edges):
        return ()
    hitters = [x for x in range(1 << n) if all(x & e for e in edges)]
    out = []
    for x in hitters:
        if not any(y != x and x & y == y for y in hitters):
            out.append(x)
    return tuple(sorted(out))


def brute_transversal(h: Hypergraph) -> Hypergraph:
    return Hypergraph.from_masks(h.vertices, brute_dual_masks(h.edge_masks, h.n))


def brute_is_conformal(h: Hypergraph) -> bool:
    """Scan every X subset of V; pairwise-covered X must lie in a hyperedge."""
    n = h.n
    pair_cov = [[False] * n for _ in range(n)]
    for e in h.edge_masks:
        vs = [i for i in range(n) if e >> i & 1]
        for i in vs:
            for j in vs:
                pair_cov[i][j] = True
    for x in range(1 << n):
        vs = [i for i in range(n) if x >> i & 1]
        if all(pair_cov[i][j] for i in vs for j in vs if i != j):
            if not any(e & x == x for e in h.edge_masks):
                return False
    return True


def dependent_masks(h: Hypergraph):
    deps = []
    for x in range(1 << h.n):
        if any(e & x == e for e in h.edge_masks):
            deps.append(x)
    return deps


def brute_two_summable_pair(h: Hypergraph):
    """A violating (A1, A2, B1, B2) by enumerating dependent pairs, or None."""
    n = h.n
    deps = set(dependent_masks(h))
    inds = [x for x in range(1 << n) if x not in deps]
    seen = {}
    for b1, b2 in itertools.combinations_with_replacement(sorted(deps), 2):
        seen[(b1 & b2, b1 | b2)] = (b1, b2)
    for a1, a2 in itertools.combinations_with_replacement(inds, 2):
        key = (a1 & a2, a1 | a2)
        if key in seen:
            return (a1, a2) + seen[key]
    return None


def brute_is_two_asummable(h: Hypergraph) -> bool:
    return brute_two_summable_pair(h) is None


def brute_is_regular(h: Hypergraph) -> bool:
    """Every two vertices i, j are comparable: X + j dependent implies
    X + i dependent for all X avoiding both, or the same with i and j
    swapped."""
    n = h.n
    deps = set(dependent_masks(h))
    for i, j in itertools.combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        rest = [x for x in range(1 << n) if not x & (bi | bj)]
        i_dominates = all(x | bi in deps for x in rest if x | bj in deps)
        j_dominates = all(x | bj in deps for x in rest if x | bi in deps)
        if not (i_dominates or j_dominates):
            return False
    return True


def brute_is_threshold(h: Hypergraph, max_weight: int = 8) -> bool:
    """Bounded integer weight search; complete for n <= 4 (small realizations
    exist for every threshold function on at most four variables)."""
    if h.n > 4:
        raise ValueError("bounded-weight oracle is only trusted for n <= 4")
    n = h.n
    deps = set(dependent_masks(h))
    for w in itertools.product(range(max_weight + 1), repeat=n):
        wsum = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            wsum[mask] = wsum[mask ^ low] + w[low.bit_length() - 1]
        mind = min((wsum[m] for m in range(1 << n) if m in deps), default=None)
        maxi = max((wsum[m] for m in range(1 << n) if m not in deps), default=None)
        if mind is None or maxi is None:
            return True
        if mind > maxi:
            return True
    return False


def brute_minimum_dominating(g: Graph, variant: str):
    """(size, witness) by scanning subsets in increasing size, or None."""
    n = g.n
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            if dominates(g, comb, variant, closed, full):
                return size, frozenset(comb)
    return None


def dominates(g: Graph, dset, variant: str, closed=None, full=None) -> bool:
    if closed is None:
        closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    if full is None:
        full = (1 << g.n) - 1
    if variant == "dominating":
        cover = 0
        for v in dset:
            cover |= closed[v]
        return cover == full
    if variant == "total":
        cover = 0
        for v in dset:
            cover |= g.adj[v]
        return cover == full
    if variant == "connected":
        cover = 0
        for v in dset:
            cover |= closed[v]
        if cover != full:
            return False
        from sperner.bitset import is_connected, mask_of
        return is_connected(list(g.adj), mask_of(dset))
    raise ValueError(variant)


def brute_minimal_dominating_sets(g: Graph):
    """All inclusion-minimal dominating sets as masks."""
    n = g.n
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    doms = []
    for x in range(1 << n):
        cover = 0
        xm = x
        while xm:
            b = xm & -xm
            cover |= closed[b.bit_length() - 1]
            xm ^= b
        if cover == full:
            doms.append(x)
    dset = set(doms)
    out = []
    for x in doms:
        minimal = True
        xm = x
        while xm:
            b = xm & -xm
            if (x ^ b) in dset:
                minimal = False
                break
            xm ^= b
        if minimal:
            out.append(x)
    return tuple(sorted(out))


def brute_find_induced(g: Graph, pat: Graph):
    """Induced embedding by trying all injections (pattern order)."""
    for image in itertools.permutations(range(g.n), pat.n):
        ok = True
        for i in range(pat.n):
            for j in range(i + 1, pat.n):
                if pat.has_edge(i, j) != g.has_edge(image[i], image[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return image
    return None


def brute_gluing_vertices(h: Hypergraph):
    """Vertex ids z at which h is a gluing, from the definition on
    frozensets: every e containing z and f avoiding z have e \\ f = {z}."""
    es = h.edges
    return [z for z in h.vertices
            if all(e - f == {z} for e in es if z in e for f in es if z not in f)]

"""Simple graphs, small-pattern detection, and graph/hypergraph bridges.

Graphs are immutable, with vertices 0..n-1 and adjacency stored as bitmask
rows. The module provides:

* the fixed catalog of small graphs used as forbidden induced subgraphs
  (P4, C4, 2K2, K33, K33+, 2P3, co-2P3, H, co-H), where H is 2P3 plus the
  edge between its two degree-two vertices;
* induced-subgraph search for patterns up to a size cap, with a witness;
* split partitions (degree-sequence test) and bipartitions (BFS);
* the derived hypergraphs of a graph: maximal cliques, minimal vertex
  covers, minimal closed neighborhoods, minimal dominating sets, minimal
  open neighborhoods, minimal cutsets, maximal independent sets;
* the three incidence graphs of a hypergraph (bigraph and the two split
  graphs) plus its co-occurrence graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bitset import (bits, connected_components, is_connected, mask_of,
                     maximal_cliques, minimal_masks, popcount)
from .hypergraph import Hypergraph, co_occurrence_adjacency, dual_masks

# caps on the pattern size of find_induced and on the 2^n scan of cutset_hypergraph
PATTERN_CAP = 7
CUTSET_CAP = 18


class GraphError(ValueError):
    pass


class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops), bitmask rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_adj(cls, adj: Iterable[int]) -> "Graph":
        g = cls.__new__(cls)
        t = tuple(adj)
        object.__setattr__(g, "n", len(t))
        object.__setattr__(g, "adj", t)
        return g

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Graph is immutable")

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    @property
    def num_edges(self) -> int:
        return sum(popcount(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def neighbors(self, v: int) -> frozenset:
        return frozenset(bits(self.adj[v]))

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph.from_adj(full & ~self.adj[v] & ~(1 << v) for v in range(self.n))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph relabeled to 0..k-1 (original ids in sorted order)."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        return Graph(len(vs), [(pos[u], pos[v]) for u, v in self.edges()
                               if u in pos and v in pos])

    def induced_with_map(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        vs = tuple(sorted(set(vertices)))
        return self.induced(vs), vs

    def is_connected(self) -> bool:
        return is_connected(list(self.adj), (1 << self.n) - 1)

    def components(self) -> list[int]:
        return connected_components(list(self.adj), (1 << self.n) - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"


# ---------------------------------------------------------------------------
# Pattern catalog
# ---------------------------------------------------------------------------

def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _build_patterns() -> dict[str, Graph]:
    two_p3 = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    # H: 2P3 plus the edge joining the two degree-two (middle) vertices
    h = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)])
    k33 = Graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
    # K33+: K33 plus exactly one edge inside one side
    k33p = Graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)] + [(0, 1)])
    return {
        "P4": _path(4),
        "C4": _cycle(4),
        "2K2": Graph(4, [(0, 1), (2, 3)]),
        "K33": k33,
        "K33+": k33p,
        "2P3": two_p3,
        "co-2P3": two_p3.complement(),
        "H": h,
        "co-H": h.complement(),
    }


PATTERNS: dict[str, Graph] = _build_patterns()

# The unique split partition (K, I) of H: the two middle vertices form K.
H_SPLIT = (frozenset({1, 4}), frozenset({0, 2, 3, 5}))


def pattern(name: str) -> Graph:
    try:
        return PATTERNS[name]
    except KeyError:
        raise GraphError(f"unknown pattern {name!r}; known: {sorted(PATTERNS)}") from None


# ---------------------------------------------------------------------------
# Induced subgraph search
# ---------------------------------------------------------------------------

def find_induced(g: Graph, pat: Graph) -> Optional[tuple[int, ...]]:
    """An injective map realizing ``pat`` as an induced subgraph of ``g``.

    Returns the image tuple (pattern vertex i -> host vertex) or None.
    Backtracking over pattern vertices in a most-constrained order; at each
    step the candidate set is intersected with host neighborhoods /
    non-neighborhoods of already placed vertices, so adjacency and
    non-adjacency are both enforced (induced embedding).
    """
    k = pat.n
    if k > PATTERN_CAP:
        raise GraphError(f"pattern with {k} vertices exceeds cap {PATTERN_CAP}")
    if k > g.n:
        return None
    if k == 0:
        return ()
    # order pattern vertices: first the max-degree vertex, then repeatedly a
    # vertex with most already-ordered neighbors (ties: smaller index)
    order = []
    placed = set()
    while len(order) < k:
        best = None
        key = None
        for v in range(k):
            if v in placed:
                continue
            c = sum(1 for u in order if pat.has_edge(u, v))
            kk = (c, pat.degree(v), -v)
            if key is None or kk > key:
                key = kk
                best = v
        order.append(best)
        placed.add(best)
    degs = [pat.degree(v) for v in range(k)]
    full = (1 << g.n) - 1
    image = [-1] * k
    used = 0

    def rec(step: int) -> bool:
        nonlocal used
        if step == k:
            return True
        p = order[step]
        cand = full & ~used
        for q in order[:step]:
            w = image[q]
            if pat.has_edge(p, q):
                cand &= g.adj[w]
            else:
                cand &= ~g.adj[w]
        c = cand
        while c:
            b = c & -c
            v = b.bit_length() - 1
            c ^= b
            if popcount(g.adj[v]) < degs[p]:
                continue
            image[p] = v
            used |= b
            if rec(step + 1):
                return True
            used ^= b
            image[p] = -1
        return False

    if rec(0):
        return tuple(image)
    return None


def forbidden_witness(g: Graph, names: Iterable[str]) -> Optional[tuple[str, tuple[int, ...]]]:
    """First forbidden pattern found, as (name, image), or None."""
    for nm in names:
        w = find_induced(g, pattern(nm))
        if w is not None:
            return (nm, w)
    return None


# ---------------------------------------------------------------------------
# Split partitions and bipartitions
# ---------------------------------------------------------------------------

def find_split_partition(g: Graph) -> Optional[tuple[frozenset, frozenset]]:
    """A split partition (K clique, I independent) or None.

    Degree-sequence test: sort degrees non-increasingly, take the largest m
    with d_m >= m-1; the graph is split iff sum of the top m degrees equals
    m(m-1) plus the sum of the rest, and then the top-m vertices form K.
    Ties are broken by placing lower-indexed vertices first; when the
    equality holds, any m vertices of top degree form a clique and the
    rest an independent set, whatever the order among equal degrees
    (Hammer and Simeone, The splittance of a graph, Combinatorica 1981).
    """
    n = g.n
    orderv = sorted(range(n), key=lambda v: (-g.degree(v), v))
    d = [g.degree(v) for v in orderv]
    m = 0
    for i in range(n):
        if d[i] >= i:
            m = i + 1
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return None
    K = frozenset(orderv[:m])
    return K, frozenset(range(n)) - K


def find_bipartition(g: Graph) -> Optional[tuple[frozenset, frozenset]]:
    """2-coloring by BFS, component roots (lowest index) on side A, or None."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in bits(g.adj[u]):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    a = frozenset(v for v in range(g.n) if color[v] == 0)
    return a, frozenset(range(g.n)) - a


# ---------------------------------------------------------------------------
# Labeled split graphs and bigraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSplitGraph:
    """A split graph with a designated partition: K a clique, I independent."""
    g: Graph
    K: frozenset
    I: frozenset

    def __post_init__(self):
        if self.K | self.I != frozenset(range(self.g.n)) or self.K & self.I:
            raise GraphError("K, I must partition the vertex set")
        km = mask_of(self.K)
        for v in self.K:
            if km & ~self.g.adj[v] & ~(1 << v):
                raise GraphError("K is not a clique")
        im = mask_of(self.I)
        for v in self.I:
            if self.g.adj[v] & im:
                raise GraphError("I is not independent")


@dataclass(frozen=True)
class LabeledBigraph:
    """A bipartite graph with a designated bipartition (A, B)."""
    g: Graph
    A: frozenset
    B: frozenset

    def __post_init__(self):
        if self.A | self.B != frozenset(range(self.g.n)) or self.A & self.B:
            raise GraphError("A, B must partition the vertex set")
        for side in (self.A, self.B):
            sm = mask_of(side)
            for v in side:
                if self.g.adj[v] & sm:
                    raise GraphError("bipartition side is not independent")


# ---------------------------------------------------------------------------
# Derived hypergraphs of a graph
# ---------------------------------------------------------------------------

def edge_hypergraph(g: Graph) -> Hypergraph:
    """The graph itself, viewed as a 2-uniform hypergraph on 0..n-1."""
    return Hypergraph(range(g.n), [set(e) for e in g.edges()])


def clique_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-maximal cliques."""
    return Hypergraph.from_masks(range(g.n), maximal_cliques(list(g.adj), g.n))


def vertex_cover_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-minimal vertex covers.

    Computed as minimal transversals of the edge family; for an edgeless
    graph the empty set is the unique minimal cover.
    """
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges()]
    return Hypergraph.from_masks(range(g.n), dual_masks(edge_masks, g.n))


def closed_neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-minimal sets of the form N[v]."""
    return Hypergraph.from_masks(
        range(g.n), minimal_masks(g.closed_mask(v) for v in range(g.n)))


def neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-minimal sets of the form N(v).

    An isolated vertex contributes N(v) = {}, so the family may contain the
    empty hyperedge (and then contains nothing else).
    """
    return Hypergraph.from_masks(
        range(g.n), minimal_masks(g.adj[v] for v in range(g.n)))


def dominating_set_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-minimal dominating sets: the minimal
    transversals of the closed neighborhood family."""
    masks = dual_masks([g.closed_mask(v) for v in range(g.n)], g.n)
    return Hypergraph.from_masks(range(g.n), masks)


def cutset_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the inclusion-minimal cutsets (brute force, small n).

    S is a cutset iff g - S has at least two connected components.
    """
    if g.n > CUTSET_CAP:
        raise GraphError(f"cutset enumeration capped at {CUTSET_CAP} vertices")
    adj = list(g.adj)
    full = (1 << g.n) - 1
    cuts = []
    for mask in range(1 << g.n):
        rest = full ^ mask
        if len(connected_components(adj, rest)) >= 2:
            cuts.append(mask)
    return Hypergraph.from_masks(range(g.n), minimal_masks(cuts))


def independent_set_hypergraph(g: Graph) -> Hypergraph:
    """Hyperedges are the maximal independent sets (complements of minimal covers)."""
    full = (1 << g.n) - 1
    vc = vertex_cover_hypergraph(g)
    return Hypergraph.from_masks(range(g.n), (full ^ m for m in vc.edge_masks))


# ---------------------------------------------------------------------------
# Incidence graphs of a hypergraph
# ---------------------------------------------------------------------------

def co_occurrence(h: Hypergraph) -> Graph:
    """Graph on positions 0..n-1 (vertex i = h.vertices[i]); u ~ v iff some
    hyperedge contains both."""
    return Graph.from_adj(co_occurrence_adjacency(h))


def _incidence_adjacency(h: Hypergraph) -> list[int]:
    """Bipartite incidence adjacency: 0..n-1 vertex side, n..n+m-1 edge side."""
    n, m = h.n, h.m
    adj = [0] * (n + m)
    for j, em in enumerate(h.edge_masks):
        ev = n + j
        for i in bits(em):
            adj[i] |= 1 << ev
            adj[ev] |= 1 << i
    return adj


def bigraph_of(h: Hypergraph) -> LabeledBigraph:
    """Incidence bigraph: A = vertex side, B = hyperedge side."""
    n, m = h.n, h.m
    g = Graph.from_adj(_incidence_adjacency(h))
    return LabeledBigraph(g, frozenset(range(n)), frozenset(range(n, n + m)))


def vertex_clique_split_of(h: Hypergraph) -> LabeledSplitGraph:
    """Incidence split graph with the vertex side completed to a clique."""
    n, m = h.n, h.m
    adj = _incidence_adjacency(h)
    vm = (1 << n) - 1
    for v in range(n):
        adj[v] |= vm & ~(1 << v)
    g = Graph.from_adj(adj)
    return LabeledSplitGraph(g, frozenset(range(n)), frozenset(range(n, n + m)))


def edge_clique_split_of(h: Hypergraph) -> LabeledSplitGraph:
    """Incidence split graph with the hyperedge side completed to a clique."""
    n, m = h.n, h.m
    adj = _incidence_adjacency(h)
    em = ((1 << m) - 1) << n
    for j in range(n, n + m):
        adj[j] |= em & ~(1 << j)
    g = Graph.from_adj(adj)
    return LabeledSplitGraph(g, frozenset(range(n, n + m)), frozenset(range(n)))

"""Matrix-partition decompositions of four graph classes.

The four classes are the H-free clique-Sperner split graphs, the
co-H-free independent-Sperner split graphs, the 2P3-free right-Sperner
bigraphs, and the co-2P3-free cobipartite graphs with right-Sperner
complement. Each decomposes recursively: one vertex z together with a
partition of the rest into four parts forms an M[a,b]-partition, where
M[a,b] is the symmetric 5x5 matrix over {0,1,*}

        a a a 1 0
        a a a * 1
        a a a 0 *
        1 * 0 b b
        0 1 * b b

with rows/columns indexed by the z-singleton, the two parts sharing z's
side, and the two parts of the other side; (a, b) is (0,1), (1,0), (0,0),
(1,1) for the four classes respectively. The two children (part1 + part3,
part2 + part4) stay in their class, so the recursion bottoms out at
single vertices.

The search for z is purely graph-side: z works iff taking the other-side
neighborhood as part3 and the distance-two vertices on z's side as part1
leaves a complete join between part1 and part4. For each class the
decomposition of an in-class labeled input always succeeds; when no z
qualifies, the error reports which class precondition failed.

The co-H and cobigraph cases are handled by complementing, delegating to
the H / bigraph case, and mapping the tree back (which swaps the two
children and the part pairs).

H- and co-H-freeness of a labeled split graph are decided by O(|K|^2)
pair tests, exact under any split partition because H has only one;
the 2P3 checks of the two bigraph classes keep the generic 6-vertex
search, since 2P3 can sit across a bipartition in more than one way.

``GRAPH_CLASSES`` is the one place that maps a class name (the CLI's
``--kind``) to its decomposer of unlabeled graphs: the class's partition
search followed by its ``decompose_*`` function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .bitset import bits, containment_pair, mask_of, popcount
from .graphs import (Graph, GraphError, LabeledBigraph, LabeledSplitGraph,
                     find_bipartition, find_induced, find_split_partition,
                     pattern)


class DecompositionError(ValueError):
    """Class precondition failed; carries the reason and an optional witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason}: {witness}")
        self.reason = reason
        self.witness = witness


# ---------------------------------------------------------------------------
# Labeled Sperner predicates
# ---------------------------------------------------------------------------

def is_right_sperner(lb: LabeledBigraph) -> bool:
    """No neighborhood containment among distinct B-side vertices."""
    return _containment_witness(lb.g, lb.B) is None


def is_clique_sperner(ls: LabeledSplitGraph) -> bool:
    """No containment among N(u) cap I over distinct clique vertices u."""
    return _containment_witness(ls.g, ls.K, mask_of(ls.I)) is None


def is_independent_sperner(ls: LabeledSplitGraph) -> bool:
    """No neighborhood containment among distinct independent-side vertices."""
    return _containment_witness(ls.g, ls.I) is None


def _containment_witness(g: Graph, side, restrict: int = -1):
    """Two side vertices (ascending) whose neighborhoods, restricted to
    ``restrict``, are nested; None when there are none."""
    vs = sorted(side)
    pair = containment_pair([g.adj[v] & restrict for v in vs])
    return None if pair is None else (vs[pair[0]], vs[pair[1]])


def _middle_pair_witness(g: Graph, side, restrict: int):
    """Two side vertices whose restricted neighborhoods differ by >= 2 both
    ways; the shape every labeled forbidden pattern of the incidence
    correspondence reduces to."""
    vs = sorted(side)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            nu = g.adj[u] & restrict
            nv = g.adj[v] & restrict
            if popcount(nu & ~nv) >= 2 and popcount(nv & ~nu) >= 2:
                return (u, v)
    return None


def labeled_two_p3_witness(lb: LabeledBigraph):
    """A labeled 2P3 (middle vertices on the B side), as its two middles."""
    return _middle_pair_witness(lb.g, lb.B, mask_of(lb.A))


def labeled_h_witness(ls: LabeledSplitGraph):
    """A labeled H (middle vertices in the clique side), as its two middles."""
    return _middle_pair_witness(ls.g, ls.K, mask_of(ls.I))


def labeled_co_h_witness(ls: LabeledSplitGraph):
    """A labeled co-H (degree-two side in the independent side)."""
    return _middle_pair_witness(ls.g, ls.I, mask_of(ls.K))


def pattern_witness(ls: LabeledSplitGraph, pair_witness, name: str):
    """An induced copy of H or co-H in ls.g as ``find_induced`` reports it,
    or None. ``pair_witness``, the matching O(|K|^2) labeled test, decides;
    the 6-vertex search only runs once it has found a copy, to produce the
    reported embedding."""
    if pair_witness(ls) is None:
        return None
    w = find_induced(ls.g, pattern(name))
    if w is None:
        raise DecompositionError(
            f"the pair test finds an induced {name} that the pattern search does not")
    return w


# ---------------------------------------------------------------------------
# M matrices and partitions
# ---------------------------------------------------------------------------

def m_matrix(a: int, b: int) -> tuple[tuple[object, ...], ...]:
    """The symmetric 5x5 matrix M[a,b] over {0,1,'*'}."""
    s = "*"
    return (
        (a, a, a, 1, 0),
        (a, a, a, s, 1),
        (a, a, a, 0, s),
        (1, s, 0, b, b),
        (0, 1, s, b, b),
    )


@dataclass(frozen=True)
class MPartition:
    """Five ordered parts (z-singleton first) plus the matrix pair (a, b)."""
    parts: tuple[frozenset, ...]
    a: int
    b: int

    def __post_init__(self):
        if len(self.parts) != 5:
            raise DecompositionError("an M-partition has exactly five parts")
        if len(self.parts[0]) != 1:
            raise DecompositionError("the first part must be the z-singleton")
        seen: set = set()
        for p in self.parts:
            if p & seen:
                raise DecompositionError("parts overlap")
            seen |= p

    @property
    def z(self) -> int:
        return next(iter(self.parts[0]))

    @property
    def matrix(self):
        return m_matrix(self.a, self.b)

    def vertex_set(self) -> frozenset:
        out: frozenset = frozenset()
        for p in self.parts:
            out |= p
        return out


def validate_m_partition(g: Graph, parts: tuple[frozenset, ...], a: int, b: int,
                         expect_vertices: Optional[frozenset] = None
                         ) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check every constrained pair of an M[a,b]-partition of (a subgraph of) g.

    Entry 1 forces all cross pairs adjacent, entry 0 all non-adjacent;
    diagonal entries constrain within a part. Returns (ok, violating pair).
    Raises if the parts overlap or do not cover ``expect_vertices``.
    """
    union: set = set()
    for p in parts:
        if union & p:
            raise DecompositionError("parts overlap")
        union |= p
    if expect_vertices is not None and union != expect_vertices:
        raise DecompositionError("parts do not partition the expected vertex set")
    mat = m_matrix(a, b)
    plist = [sorted(p) for p in parts]
    for i in range(5):
        for j in range(i, 5):
            want = mat[i][j]
            if want == "*":
                continue
            for u in plist[i]:
                for v in plist[j]:
                    if u == v:
                        continue
                    if g.has_edge(u, v) != bool(want):
                        return False, (u, v)
    return True, None


# ---------------------------------------------------------------------------
# Decomposition trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompLeaf:
    """At most one vertex; ``on_z_side`` records which side it lies on."""
    vertex: Optional[int]
    on_z_side: bool


@dataclass(frozen=True)
class DecompNode:
    partition: MPartition
    left: "GraphDecompositionTree"
    right: "GraphDecompositionTree"

    @property
    def z(self) -> int:
        return self.partition.z


GraphDecompositionTree = Union[DecompLeaf, DecompNode]


def iter_nodes(tree: GraphDecompositionTree) -> Iterator[DecompNode]:
    if isinstance(tree, DecompNode):
        yield tree
        yield from iter_nodes(tree.left)
        yield from iter_nodes(tree.right)


def tree_vertices(tree: GraphDecompositionTree) -> frozenset:
    if isinstance(tree, DecompLeaf):
        return frozenset() if tree.vertex is None else frozenset({tree.vertex})
    return tree.partition.vertex_set()


def tree_to_text(tree: GraphDecompositionTree, indent: int = 0) -> str:
    """One node per line: z, the four parts, and the matrix tag."""
    pad = "  " * indent
    if isinstance(tree, DecompLeaf):
        if tree.vertex is None:
            return f"{pad}leaf empty\n"
        side = "z-side" if tree.on_z_side else "other-side"
        return f"{pad}leaf v={tree.vertex} ({side})\n"
    p = tree.partition
    partstr = ",".join("{" + ",".join(str(v) for v in sorted(s)) + "}"
                       for s in p.parts[1:])
    head = f"{pad}z={p.z} | parts: {partstr} | M[{p.a},{p.b}]\n"
    return head + tree_to_text(tree.left, indent + 1) + tree_to_text(tree.right, indent + 1)


# ---------------------------------------------------------------------------
# Core recursion (shared by the split and bigraph cases)
# ---------------------------------------------------------------------------

def _decompose_core(g: Graph, zside: int, other: int, a: int, b: int,
                    classname: str) -> GraphDecompositionTree:
    """Recursive M[a,b]-decomposition; ``zside`` holds z at every level.

    For the split case with (a, b) = (0, 1), zside = I and other = K; for
    the bigraph case with (0, 0), zside = A and other = B. The recursion
    relies on the class preconditions having been checked at the entry
    point: children inherit class membership.
    """
    total = zside | other
    cnt = popcount(total)
    if cnt == 0:
        return DecompLeaf(None, True)
    if cnt == 1:
        v = next(bits(total))
        return DecompLeaf(v, bool(zside >> v & 1))
    if zside == 0:
        # two or more vertices all on the other side violates the Sperner
        # condition of every class handled here
        raise DecompositionError(
            f"not in class {classname}: multiple vertices with empty z-side")
    for z in bits(zside):
        zb = 1 << z
        p3 = g.adj[z] & other                      # other-side neighbors of z
        p4 = other ^ p3
        p1 = 0                                     # z-side vertices at distance two
        for k in bits(p3):
            p1 |= g.adj[k]
        p1 &= zside & ~zb
        if any(g.adj[u] & p4 != p4 for u in bits(p1)):
            continue                               # p1-p4 join incomplete
        p2 = zside & ~zb & ~p1
        fs = lambda m: frozenset(bits(m))
        partition = MPartition((frozenset({z}), fs(p1), fs(p2), fs(p3), fs(p4)), a, b)
        left = _decompose_core(g, p1, p3, a, b, classname)
        right = _decompose_core(g, p2, p4, a, b, classname)
        return DecompNode(partition, left, right)
    raise DecompositionError(
        f"no admissible decomposition vertex; input is not in class {classname}")


# ---------------------------------------------------------------------------
# The four class decompositions
# ---------------------------------------------------------------------------

def decompose_split_h_free(ls: LabeledSplitGraph) -> GraphDecompositionTree:
    """M[0,1]-partition tree of an H-free clique-Sperner labeled split graph.

    At each node z is an independent-side vertex, part3 = N(z), part4 the
    remaining clique vertices, part1 the independent vertices at distance
    two from z (which must be completely joined to part4), part2 the rest.
    H-freeness is decided on the given partition by the O(|K|^2) pair test
    of ``labeled_h_witness``: H has one split partition only, so any
    induced H has its middles in K and its ends in I.
    """
    w = _containment_witness(ls.g, ls.K, mask_of(ls.I))
    if w is not None:
        raise DecompositionError("labeled split graph is not clique-Sperner", w)
    w = pattern_witness(ls, labeled_h_witness, "H")
    if w is not None:
        raise DecompositionError("graph contains an induced H", w)
    return _decompose_core(ls.g, mask_of(ls.I), mask_of(ls.K), 0, 1,
                           "H-free clique-Sperner split")


def decompose_split_hbar_free(ls: LabeledSplitGraph) -> GraphDecompositionTree:
    """M[1,0]-partition tree of a co-H-free independent-Sperner split graph.

    Complement, decompose as the H-free case (the complement of an
    independent-Sperner co-H-free split graph is a clique-Sperner H-free
    split graph with the sides exchanged), and map the tree back; the part
    pairs and the two children swap. co-H-freeness is decided by the pair
    test of ``labeled_co_h_witness``: an induced co-H has its two
    degree-two vertices in I, whose K-neighborhoods differ by >= 2 both ways.
    """
    w = _containment_witness(ls.g, ls.I)
    if w is not None:
        raise DecompositionError("labeled split graph is not independent-Sperner", w)
    w = pattern_witness(ls, labeled_co_h_witness, "co-H")
    if w is not None:
        raise DecompositionError("graph contains an induced co-H", w)
    comp = ls.g.complement()
    tree = _decompose_core(comp, mask_of(ls.K), mask_of(ls.I), 0, 1,
                           "co-H-free independent-Sperner split")
    return _transform_complement_tree(tree, 1, 0)


def decompose_bigraph_2p3_free(lb: LabeledBigraph) -> GraphDecompositionTree:
    """M[0,0]-partition tree of a 2P3-free right-Sperner labeled bigraph."""
    w = _containment_witness(lb.g, lb.B)
    if w is not None:
        raise DecompositionError("labeled bigraph is not right-Sperner", w)
    w = find_induced(lb.g, pattern("2P3"))
    if w is not None:
        raise DecompositionError("graph contains an induced 2P3", w)
    return _decompose_core(lb.g, mask_of(lb.A), mask_of(lb.B), 0, 0,
                           "2P3-free right-Sperner bigraph")


def decompose_cobigraph(g: Graph) -> GraphDecompositionTree:
    """M[1,1]-partition tree of a co-2P3-free cobipartite graph whose
    complement is right-Sperner. Delegates to the bigraph case on the
    complement and maps the tree back."""
    comp = g.complement()
    lb = find_right_sperner_bipartition(comp)
    if lb is None:
        raise DecompositionError(
            "complement admits no right-Sperner bipartition (or is not bipartite)")
    w = find_induced(comp, pattern("2P3"))
    if w is not None:
        raise DecompositionError("graph contains an induced co-2P3", w)
    tree = _decompose_core(comp, mask_of(lb.A), mask_of(lb.B), 0, 0,
                           "co-2P3-free right-Sperner-complement cobigraph")
    return _transform_complement_tree(tree, 1, 1)


def _transform_complement_tree(tree: GraphDecompositionTree, a: int, b: int
                               ) -> GraphDecompositionTree:
    """Map an M[0,1]/M[0,0] tree of the complement to an M[1,0]/M[1,1] tree.

    Complementing flips constrained matrix entries; restoring the displayed
    matrix shape requires exchanging part1 with part2 and part3 with
    part4, which also exchanges the two children.
    """
    if isinstance(tree, DecompLeaf):
        return tree
    p = tree.partition
    parts = (p.parts[0], p.parts[2], p.parts[1], p.parts[4], p.parts[3])
    return DecompNode(MPartition(parts, a, b),
                      _transform_complement_tree(tree.right, a, b),
                      _transform_complement_tree(tree.left, a, b))


# ---------------------------------------------------------------------------
# Partition searches (entry points for unlabeled inputs)
# ---------------------------------------------------------------------------

def clique_sperner_partition(g: Graph) -> Optional[LabeledSplitGraph]:
    """The split partition making g clique-Sperner, or None.

    For an edgeless graph the partition (K, I) = ({}, V) is used; with one
    edge, K holds the lowest-indexed non-isolated vertex. With two or more
    edges the partition is forced: the unique split partition whose
    independent side is a maximal independent set. Raises GraphError when
    g is not split.
    """
    base = find_split_partition(g)
    if base is None:
        raise GraphError("graph is not split")
    m = g.num_edges
    if m == 0:
        return LabeledSplitGraph(g, frozenset(), frozenset(range(g.n)))
    if m == 1:
        u, v = g.edges()[0]
        k = min(u, v)
        return LabeledSplitGraph(g, frozenset({k}), frozenset(range(g.n)) - {k})
    K, I = base
    imask = mask_of(I)
    movers = sorted(v for v in K if g.adj[v] & imask == 0)
    if movers:
        v = movers[0]
        K = K - {v}
        I = I | {v}
    ls = LabeledSplitGraph(g, K, I)
    return ls if is_clique_sperner(ls) else None


def independent_sperner_partition(g: Graph) -> Optional[LabeledSplitGraph]:
    """The split partition making g independent-Sperner, or None (complement route)."""
    comp = g.complement()
    got = clique_sperner_partition(comp)
    if got is None:
        return None
    return LabeledSplitGraph(g, K=got.I, I=got.K)


def find_right_sperner_bipartition(g: Graph) -> Optional[LabeledBigraph]:
    """A bipartition (A, B) making g right-Sperner, or None.

    Isolated vertices and one endpoint of every 2-vertex component go to
    A; a component with more than two vertices (there is at most one in a
    2P3-free bigraph) is tried in both orientations. Raises
    DecompositionError when more than one large component exists.
    """
    bipartition = find_bipartition(g)
    if bipartition is None:
        return None
    comps = g.components()
    amask = 0
    bmask = 0
    large = []
    for comp in comps:
        k = popcount(comp)
        if k == 1:
            amask |= comp
        elif k == 2:
            lo = comp & -comp
            amask |= lo
            bmask |= comp ^ lo
        else:
            large.append(comp)
    if len(large) > 1:
        raise DecompositionError(
            "more than one component with over two vertices (contains 2P3)")
    if large:
        # side A of find_bipartition holds the lowest vertex of each component
        comp = large[0]
        side0 = comp & mask_of(bipartition[0])
        orientations = [(amask | side0, bmask | (comp ^ side0)),
                        (amask | (comp ^ side0), bmask | side0)]
    else:
        orientations = [(amask, bmask)]
    for am, bm in orientations:
        lb = LabeledBigraph(g, frozenset(bits(am)), frozenset(bits(bm)))
        if is_right_sperner(lb):
            return lb
    return None


# ---------------------------------------------------------------------------
# The class registry
# ---------------------------------------------------------------------------

def _found(labeled, what: str):
    if labeled is None:
        raise DecompositionError(f"no {what} exists")
    return labeled


# Class name -> decomposition of an unlabeled graph of that class. The
# lambdas look the functions up at call time, so a module attribute
# rebound later (for instance by a profiler's wrapper) takes effect.
GRAPH_CLASSES = {
    "split-H": lambda g: decompose_split_h_free(
        _found(clique_sperner_partition(g), "clique-Sperner split partition")),
    "split-Hbar": lambda g: decompose_split_hbar_free(
        _found(independent_sperner_partition(g), "independent-Sperner split partition")),
    "bigraph": lambda g: decompose_bigraph_2p3_free(
        _found(find_right_sperner_bipartition(g), "right-Sperner bipartition")),
    "cobigraph": lambda g: decompose_cobigraph(g),
}

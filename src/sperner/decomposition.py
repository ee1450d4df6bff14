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
single vertices. A node's label is an ``MPartition``: the z-singleton
and the four parts as vertex masks over graph ids, as the core computes
them. Constructing one checks its shape, and ``validate_m_partition(g,
partition)`` checks it against the graph. A tree is a ``DecompNode``
view of the core's preorder list of partitions and leaves, as a gluing
tree is (``hypergraph.PreorderView``); the builders fold that list and
``tree_to_text`` prints it from the one depth walk of both tree kinds
(``hypergraph.preorder_depths``).

The search for z is the hypergraph one. A level with z-side Z and other
side O is the hypergraph on Z whose hyperedges are N(k) & Z for k in O;
z works iff it is a gluing vertex of that hypergraph (U_z within I_z,
``hypergraph.gluing_split``), with part1 = U_z, part3 = N(z) & O and
the split's two hyperedge lists as the children's. For each class the
decomposition of an in-class labeled input always succeeds; when no z
qualifies, the error reports which class precondition failed.

The co-H and cobigraph cases run the same search on the complement,
whose levels are those of the H / bigraph case. Complementing flips every
constrained entry of M[0,1-b] into that of M[1,b] with the two z-side
parts and the two other-side parts exchanged, so for a = 1 the core lists
each node's parts as (z, part2, part1, part4, part3) and puts the
(part2, part4) child on the left; the tree comes out in M[1,b] form with
no second pass.

H- and co-H-freeness of a labeled split graph are decided by O(|K|^2)
pair tests, exact under any split partition because H has only one.
2P3 can sit across a bipartition in three ways (middles both in B, both
in A, or one on each side); ``bigraph_two_p3_witness`` tests all three
under the given bipartition, which makes it exact for every
bipartition. The generic 6-vertex search runs only to report the
induced copy in an out-of-class input.

``GRAPH_CLASSES`` is the one place that maps a class name (the CLI's
``--kind``) to its decomposer of unlabeled graphs: the class's partition
search followed by its ``decompose_*`` function, and ``CLASS_MATRICES``
to its (a, b), which ``check_decomposition_tree`` checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .bitset import bits, containment_pair, mask_of, min_difference_pair, popcount
from .graphs import (Graph, GraphError, LabeledBigraph, LabeledSplitGraph,
                     find_bipartition, find_induced, find_split_partition,
                     pattern)
from .hypergraph import PreorderView, gluing_split, marked_preorder, preorder_depths


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
    pair = min_difference_pair([g.adj[v] & restrict for v in vs], 0, 1)
    return None if pair is None else (vs[pair[0]], vs[pair[1]])


def labeled_two_p3_witness(lb: LabeledBigraph):
    """A labeled 2P3 (middle vertices on the B side), as its two middles."""
    return _middle_pair_witness(lb.g, lb.B, mask_of(lb.A))


def bigraph_two_p3_witness(lb: LabeledBigraph):
    """An induced 2P3 of a bigraph, as its two middles, or None.

    Under the bipartition (A, B), the middles of an induced 2P3 lie
    * both in B: their A-neighborhoods differ by >= 2 both ways
      (``labeled_two_p3_witness``);
    * both in A: the same with the sides exchanged;
    * u in A and v in B, non-adjacent: two vertices of N(u) and two of
      N(v) have no edge between them.
    Every other non-edge of the pattern joins two vertices of one side
    and holds in every bigraph, so the three cases together are exact.
    The last case costs O(|A||B| * degree^2) mask operations.
    """
    w = labeled_two_p3_witness(lb)
    if w is None:
        w = _middle_pair_witness(lb.g, lb.A, mask_of(lb.B))
    if w is not None:
        return w
    adj = lb.g.adj
    for u in sorted(lb.A):
        nu = adj[u]
        if popcount(nu) < 2:
            continue
        for v in sorted(lb.B):
            nv = adj[v]
            if nu >> v & 1 or popcount(nv) < 2:
                continue
            # per x in N(u), the vertices of N(v) that x misses
            free = [f for f in (nv & ~adj[x] for x in bits(nu)) if popcount(f) >= 2]
            for i, f in enumerate(free):
                if any(popcount(f & f2) >= 2 for f2 in free[i + 1:]):
                    return (u, v)
    return None


def labeled_h_witness(ls: LabeledSplitGraph):
    """A labeled H (middle vertices in the clique side), as its two middles."""
    return _middle_pair_witness(ls.g, ls.K, mask_of(ls.I))


def labeled_co_h_witness(ls: LabeledSplitGraph):
    """A labeled co-H (degree-two side in the independent side)."""
    return _middle_pair_witness(ls.g, ls.I, mask_of(ls.K))


def pattern_witness(labeled, pair_witness, name: str):
    """An induced copy of H, co-H or 2P3 in ``labeled.g`` (a labeled split
    graph or bigraph) as ``find_induced`` reports it, or None.
    ``pair_witness``, the matching labeled pair test, decides; the
    6-vertex search only runs once it has found a copy, to produce the
    reported embedding."""
    if pair_witness(labeled) is None:
        return None
    w = find_induced(labeled.g, pattern(name))
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
    """Five ordered parts (z-singleton first) plus the matrix pair (a, b).

    Each part is a vertex mask over graph ids (bit v for vertex v), as
    ``Hypergraph.edge_masks`` are over positions. Construction is the
    shape check: five parts, a one-bit first part, and no overlap, tested
    with a running OR. ``validate_m_partition`` is the graph check.
    """
    parts: tuple[int, ...]
    a: int
    b: int

    def __post_init__(self):
        if len(self.parts) != 5:
            raise DecompositionError("an M-partition has exactly five parts")
        zb = self.parts[0]
        if zb <= 0 or zb & (zb - 1):
            raise DecompositionError("the first part must be the z-singleton")
        seen = 0
        for p in self.parts:
            if p & seen:
                raise DecompositionError("parts overlap")
            seen |= p

    @property
    def z(self) -> int:
        return self.parts[0].bit_length() - 1


def validate_m_partition(g: Graph, partition: MPartition
                         ) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check every constrained pair of an M[a,b]-partition of (a subgraph of) g.

    Entry 1 forces all cross pairs adjacent, entry 0 all non-adjacent;
    diagonal entries constrain within a part. Returns (ok, violating pair):
    the first pair (u, v) by block, then by u, then by v, all ascending.
    """
    parts = partition.parts
    mat = m_matrix(partition.a, partition.b)
    for i in range(5):
        for j in range(i, 5):
            entry = mat[i][j]
            if entry == "*":
                continue
            for u in bits(parts[i]):
                col = parts[j] & ~(1 << u)
                bad = (g.adj[u] ^ (col if entry else 0)) & col
                if bad:
                    return False, (u, (bad & -bad).bit_length() - 1)
    return True, None


# ---------------------------------------------------------------------------
# Decomposition trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompLeaf:
    """At most one vertex; ``on_z_side`` records which side it lies on."""
    vertex: Optional[int]
    on_z_side: bool


class DecompNode(PreorderView):
    """M[a,b] node: its ``partition`` and two children, as a view of a
    preorder of ``MPartition`` and ``DecompLeaf`` items (``PreorderView``)."""

    __slots__ = ()
    LEAF = DecompLeaf
    _LABEL = "partition"
    partition = PreorderView._label

    @property
    def z(self) -> int:
        return self.partition.z


GraphDecompositionTree = Union[DecompLeaf, DecompNode]


def tree_to_text(tree: GraphDecompositionTree) -> str:
    """One node per line in preorder, indented two spaces per level
    (``hypergraph.preorder_depths``): z, the four parts, and the matrix
    tag."""
    lines = []
    names: list[str] = []
    for x, depth in preorder_depths(tree, DecompLeaf):
        pad = "  " * depth
        if isinstance(x, MPartition):
            partstr = ",".join("{" + _id_list(s, names) + "}" for s in x.parts[1:])
            lines.append(f"{pad}z={x.z} | parts: {partstr} | M[{x.a},{x.b}]\n")
        elif x.vertex is None:
            lines.append(f"{pad}leaf empty\n")
        else:
            side = "z-side" if x.on_z_side else "other-side"
            lines.append(f"{pad}leaf v={x.vertex} ({side})\n")
    return "".join(lines)


_ONE = re.compile("1")


def _id_list(mask: int, names: list) -> str:
    """The set bit positions of ``mask``, ascending and comma-separated,
    read off one ``bin()`` string: ``bits`` would pay a few big-integer
    operations of O(n / word) per set bit. ``names[i]`` is ``str(i)``,
    extended here to the width of ``mask`` and shared by a tree's parts."""
    if mask.bit_length() > len(names):
        names.extend(map(str, range(len(names), mask.bit_length())))
    return ",".join([names[m.start()] for m in _ONE.finditer(bin(mask)[:1:-1])])


# ---------------------------------------------------------------------------
# The core decomposition (shared by the split and bigraph cases)
# ---------------------------------------------------------------------------

def _decompose_core(g: Graph, zside: int, other: int, a: int, b: int,
                    classname: str) -> GraphDecompositionTree:
    """M[a,b]-decomposition tree; ``zside`` holds z at every level.

    For the split case with (a, b) = (0, 1), zside = I and other = K; for
    the bigraph case with (0, 0), zside = A and other = B. For a = 1, g is
    the complement of the input, decomposed as the M[0,1-b] case (zside =
    the input's K, or A of the complement's bipartition), and each node is
    emitted in M[1,b] form: its parts are listed as (z, part2, part1,
    part4, part3) and the (part2, part4) child is its left one, since
    complementing flips every constrained entry of M[0,1-b] into that of
    M[1,b] with the part pairs exchanged. The entry points check the class
    preconditions; children inherit class membership.

    A level (Z, O) is the hypergraph on Z whose hyperedges are N(k) & Z
    for k in O, as masks over the graph's vertex ids. For a candidate z,
    part3 = N(z) & O is the set of k whose hyperedge holds z, part4 the
    rest of O, and part1 = N(part3) & Z minus z is U_z. The part1-part4
    join is complete iff every hyperedge of part4 contains U_z, that is
    iff U_z is a subset of I_z, so z works iff it is a gluing vertex of
    the level, and the children's hyperedges N(k) & part1 (k in part3) and
    N(k) & part2 (k in part4) are the split's E1 and E2, in the order of
    k. ``hypergraph.gluing_split`` finds the lowest such bit, which is the
    lowest vertex id. The levels are walked on an explicit stack in
    preorder, so depth is limited by memory only; a view of that list is
    the tree.
    """
    adj = g.adj
    order: list = []                # preorder: DecompLeaf or MPartition
    todo = [(zside, other, [adj[k] & zside for k in bits(other)])]
    while todo:
        zs, ot, masks = todo.pop()
        total = zs | ot
        if not total & (total - 1):
            order.append(DecompLeaf(total.bit_length() - 1, bool(zs)) if total
                         else DecompLeaf(None, True))
            continue
        found = gluing_split(zs, masks)
        if found is None:
            # Also the error of a level with two or more vertices, all on
            # the other side, which cannot occur: its hyperedges would be
            # equal and empty. The entry points check that the root's
            # hyperedges form an antichain (clique-Sperner,
            # independent-Sperner after complementing, or right-Sperner),
            # and the children keep it, since e -> e \ {z} and
            # f -> f \ U_z preserve containment both ways (every such f
            # contains U_z).
            raise DecompositionError(
                f"no admissible decomposition vertex; input is not in class {classname}")
        zb, (p1, e1, e2) = found
        z = zb.bit_length() - 1
        p3 = adj[z] & ot
        p4 = ot ^ p3
        p2 = zs & ~zb & ~p1
        if a:                       # M[1,b] form: the part pairs and children swap
            p1, p2, p3, p4, e1, e2 = p2, p1, p4, p3, e2, e1
        order.append(MPartition((zb, p1, p2, p3, p4), a, b))
        todo.append((p2, p4, e2))
        todo.append((p1, p3, e1))
    return DecompNode._view(order, 0, [])


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

    The core decomposes the complement as the H-free case (the complement
    of an independent-Sperner co-H-free split graph is a clique-Sperner
    H-free split graph with the sides exchanged) and emits the nodes in
    M[1,0] form (``_decompose_core``). co-H-freeness is decided by the pair
    test of ``labeled_co_h_witness``: an induced co-H has its two
    degree-two vertices in I, whose K-neighborhoods differ by >= 2 both ways.
    """
    w = _containment_witness(ls.g, ls.I)
    if w is not None:
        raise DecompositionError("labeled split graph is not independent-Sperner", w)
    w = pattern_witness(ls, labeled_co_h_witness, "co-H")
    if w is not None:
        raise DecompositionError("graph contains an induced co-H", w)
    return _decompose_core(ls.g.complement(), mask_of(ls.K), mask_of(ls.I), 1, 0,
                           "co-H-free independent-Sperner split")


def decompose_bigraph_2p3_free(lb: LabeledBigraph) -> GraphDecompositionTree:
    """M[0,0]-partition tree of a 2P3-free right-Sperner labeled bigraph;
    2P3-freeness is the three-case pair test of ``bigraph_two_p3_witness``."""
    w = _containment_witness(lb.g, lb.B)
    if w is not None:
        raise DecompositionError("labeled bigraph is not right-Sperner", w)
    w = pattern_witness(lb, bigraph_two_p3_witness, "2P3")
    if w is not None:
        raise DecompositionError("graph contains an induced 2P3", w)
    return _decompose_core(lb.g, mask_of(lb.A), mask_of(lb.B), 0, 0,
                           "2P3-free right-Sperner bigraph")


def decompose_cobigraph(g: Graph) -> GraphDecompositionTree:
    """M[1,1]-partition tree of a co-2P3-free cobipartite graph whose
    complement is right-Sperner. The core decomposes the complement as the
    bigraph case and emits the nodes in M[1,1] form."""
    comp = g.complement()
    lb = find_right_sperner_bipartition(comp)
    if lb is None:
        raise DecompositionError(
            "complement admits no right-Sperner bipartition (or is not bipartite)")
    w = pattern_witness(lb, bigraph_two_p3_witness, "2P3")
    if w is not None:
        raise DecompositionError("graph contains an induced co-2P3", w)
    return _decompose_core(comp, mask_of(lb.A), mask_of(lb.B), 1, 1,
                           "co-2P3-free right-Sperner-complement cobigraph")


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

# Class name -> the (a, b) of every node of its trees.
CLASS_MATRICES = {"split-H": (0, 1), "split-Hbar": (1, 0), "bigraph": (0, 0),
                  "cobigraph": (1, 1)}


def check_decomposition_tree(g: Graph, tree: GraphDecompositionTree, kind: str):
    """Raise ``DecompositionError`` unless ``tree`` is an M[a,b]
    decomposition of g for the class ``kind``: every node is tagged with
    the class's (a, b) and passes ``validate_m_partition``, and the z's
    and the leaf vertices cover the vertex set exactly once."""
    a, b = CLASS_MATRICES[kind]
    covered = []
    for x in marked_preorder(tree):
        if isinstance(x, DecompLeaf):
            if x.vertex is not None:
                covered.append(x.vertex)
            continue
        if (x.a, x.b) != (a, b):
            raise DecompositionError(f"node tagged M[{x.a},{x.b}], expected M[{a},{b}]")
        ok, pair = validate_m_partition(g, x)
        if not ok:
            raise DecompositionError(f"node at z={x.z} violates its matrix at {pair}")
        covered.append(x.z)
    covered.sort()
    if covered != list(range(g.n)):
        raise DecompositionError(f"tree covers {covered}")

"""Hypergraphs, Sperner-type predicates, gluing, and recursive decomposition.

A hypergraph is a finite vertex set together with a family of distinct
hyperedges (subsets of the vertices; the empty hyperedge is allowed).
Hyperedges are stored as bitmasks over the sorted vertex sequence, so all
pairwise predicates reduce to word operations.

The central structural facts implemented here:

* a hypergraph is 1-Sperner iff every two distinct hyperedges e, f satisfy
  min(|e \\ f|, |f \\ e|) = 1;
* gluing two vertex-disjoint hypergraphs H1, H2 at a fresh vertex z yields
  the hypergraph with hyperedges {z} + e (e in H1) and V(H1) + e (e in H2);
* every 1-Sperner hypergraph with at least one vertex is a gluing of two
  1-Sperner hypergraphs, which yields a recursive decomposition tree whose
  recomposition reproduces the input bit-exactly;
* a hypergraph is the gluing of two hypergraphs at z iff U_z is a subset
  of I_z, where U_z is the union of e \\ {z} over the hyperedges e that
  contain z and I_z the intersection of the hyperedges that avoid z (all
  vertices if none does). The gluing condition asks e \\ {z} to be a
  subset of f for every such pair (e, f); over all pairs together that
  says U_z is a subset of I_z. So one candidate z costs O(m) word operations,
  and the constituents are read off U_z as masks;
* conflict lemma: a candidate z that fails refutes more than z. The test
  fails on a pair (e, f) with e containing z, f avoiding z and e \\ {z}
  not a subset of f. Take any x in (e \\ {z}) \\ f. Then e contains x, f
  avoids it, and e \\ {x} still holds z, which f lacks; so the pair
  fails the test at x too, and x is no gluing vertex. The conflict mask
  (e \\ {z}) & ~I is the union of these sets over the hyperedges f that
  avoid z and were read before e, and U & ~f the union over the
  hyperedges e that contain z and were read before f, so no vertex of
  either is a gluing vertex;
* gluing lemma: glue(H1, H2, z) is 1-Sperner iff H1 and H2 both are and
  not (V1 is a hyperedge of H1 and the empty set one of H2). Pairs within
  one side keep their differences. A cross pair {z} + e, V1 + f differs
  by {z} on one side and by (V1 \\ e) + f on the other, which is empty
  exactly when e = V1 and f is empty. So a decomposition tree certifies
  1-Spernerness once every node passes this test;
* gluing trees (``HNode``, labelled by z) and M[a,b] trees
  (``decomposition.DecompNode``) are views (list, index) of one preorder
  list, the labels and leaves, left subtree first (``PreorderView``),
  printed from one depth walk (``preorder_depths``). A gluing tree
  recomposes in one forward pass over the list: a leaf with the empty
  hyperedge gives the OR over its root path of {z} at each left turn and
  V(left subtree) at each right turn (``recompose``).

Transversal (minimal hitting set) machinery and conformality testing live
here as well; both are exact and meant for desk-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .bitset import (bits, containment_pair, iter_maximal_cliques, mask_of,
                     min_difference_pair, popcount)


class HypergraphError(ValueError):
    """Invalid hypergraph construction or operation argument."""


class NotOneSpernerError(HypergraphError):
    """Raised when an operation requires a 1-Sperner input.

    Carries a violating pair of hyperedges as frozensets of vertex ids.
    """

    def __init__(self, e: frozenset, f: frozenset):
        super().__init__(f"not 1-Sperner: hyperedges {sorted(e)} and {sorted(f)}")
        self.witness = (e, f)


class Hypergraph:
    """Immutable hypergraph with integer vertex ids.

    ``vertices`` is the sorted tuple of distinct vertex ids and
    ``edge_masks`` the sorted tuple of distinct hyperedge bitmasks (bit i
    refers to ``vertices[i]``). Duplicate hyperedges are rejected: the
    hyperedge family is a set.
    """

    __slots__ = ("vertices", "edge_masks", "_pos")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]] = ()):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise HypergraphError("duplicate vertex ids")
        if any(v < 0 for v in vs):
            raise HypergraphError("vertex ids must be non-negative")
        pos = {v: i for i, v in enumerate(vs)}
        masks = []
        for e in edges:
            m = 0
            for v in e:
                if v not in pos:
                    raise HypergraphError(f"hyperedge vertex {v} not in vertex set")
                m |= 1 << pos[v]
            masks.append(m)
        if len(set(masks)) != len(masks):
            raise HypergraphError("duplicate hyperedges")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edge_masks", tuple(sorted(masks)))
        object.__setattr__(self, "_pos", pos)

    @classmethod
    def from_masks(cls, vertices: Iterable[int], masks: Iterable[int]) -> "Hypergraph":
        h = cls.__new__(cls)
        vs = tuple(sorted(vertices))
        object.__setattr__(h, "vertices", vs)
        object.__setattr__(h, "edge_masks", tuple(sorted(set(masks))))
        object.__setattr__(h, "_pos", {v: i for i, v in enumerate(vs)})
        return h

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Hypergraph is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edge_masks)

    def position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise HypergraphError(f"unknown vertex id {v}") from None

    def edge_set(self, mask: int) -> frozenset:
        return frozenset(self.vertices[i] for i in bits(mask))

    @property
    def edges(self) -> tuple[frozenset, ...]:
        return tuple(self.edge_set(m) for m in self.edge_masks)

    def mask_from_ids(self, ids: Iterable[int]) -> int:
        return mask_of(self.position(v) for v in ids)

    def incidence_matrix(self) -> tuple[tuple[int, ...], ...]:
        """0/1 matrix, rows = hyperedges in canonical (sorted mask) order,
        cols = vertices in sorted order."""
        return tuple(tuple((e >> p) & 1 for p in range(self.n)) for e in self.edge_masks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and self.vertices == other.vertices
                and self.edge_masks == other.edge_masks)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edge_masks))

    def __repr__(self) -> str:
        es = [sorted(e) for e in self.edges]
        return f"Hypergraph({list(self.vertices)}, {es})"


# ---------------------------------------------------------------------------
# Sperner-type predicates
# ---------------------------------------------------------------------------

def one_sperner_violation(h: Hypergraph) -> Optional[tuple[frozenset, frozenset]]:
    """A pair of hyperedges with min set-difference size != 1, or None."""
    ms = h.edge_masks
    pair = min_difference_pair(ms, 1, 1)
    return None if pair is None else (h.edge_set(ms[pair[0]]), h.edge_set(ms[pair[1]]))


def is_sperner(h: Hypergraph) -> bool:
    """No hyperedge contains another."""
    return containment_pair(h.edge_masks) is None


def is_dually_sperner(h: Hypergraph) -> bool:
    """Every two distinct hyperedges have min set-difference size <= 1."""
    return min_difference_pair(h.edge_masks, 0, 1) is None


def is_k_sperner(h: Hypergraph, k: int) -> bool:
    """Every two distinct hyperedges e, f satisfy 1 <= min(|e\\f|, |f\\e|) <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return min_difference_pair(h.edge_masks, 1, k) is None


def is_one_sperner(h: Hypergraph) -> bool:
    """min(|e\\f|, |f\\e|) == 1 for every pair; equals Sperner + dually Sperner."""
    return one_sperner_violation(h) is None


# ---------------------------------------------------------------------------
# Gluing and decomposition
# ---------------------------------------------------------------------------

def _glue_masks(e1, e2, v1: int, zb: int) -> list[int]:
    """Hyperedge masks of a gluing at the vertex bit ``zb``: {z} + e for e
    in ``e1`` and V1 + f for f in ``e2``, where ``v1`` is the mask of V1."""
    return [zb | e for e in e1] + [v1 | f for f in e2]


def _split_masks(masks, zb: int) -> Union[tuple[int, list[int], list[int]], int]:
    """Invert a gluing at the vertex bit ``zb``, on hyperedge masks.

    Returns (U_z, E1, E2): E1 holds e \\ {z} for the hyperedges e that
    contain z, and E2 holds f \\ U_z for the others. When the masks are
    not z-decomposable, that is when U_z is not a subset of I_z (see the
    module docstring), returns instead the nonzero conflict mask of the
    first hyperedge that shows it: (e \\ {z}) & ~I when that hyperedge e
    contains z, U & ~f when it is an f that avoids z, with U and I the
    running union and intersection. U only grows and I only shrinks as
    the masks are read, so the first conflict is final and the pass stops
    there. By the conflict lemma no vertex of the conflict mask is a
    gluing vertex either.
    """
    u = 0
    i = -1
    for e in masks:
        if e & zb:
            e ^= zb
            if e & ~i:
                return e & ~i
            u |= e
        elif u & ~e:
            return u & ~e
        else:
            i &= e
    return u, [e ^ zb for e in masks if e & zb], [f & ~u for f in masks if not f & zb]


def glue(h1: Hypergraph, h2: Hypergraph, z: int) -> Hypergraph:
    """Gluing of two vertex-disjoint hypergraphs at a fresh vertex z.

    Vertex set V1 + V2 + {z}; hyperedges {z} + e for e in E1 and V1 + e for
    e in E2. The incidence matrix has block form: an all-ones column at z
    above zeros, the E1 block over V1 above an all-ones block, zeros above
    the E2 block over V2.
    """
    v1 = set(h1.vertices)
    v2 = set(h2.vertices)
    if v1 & v2:
        raise HypergraphError(f"vertex sets overlap: {sorted(v1 & v2)}")
    if z in v1 or z in v2:
        raise HypergraphError(f"gluing vertex {z} already present")
    if z < 0:
        raise HypergraphError("vertex ids must be non-negative")
    return Hypergraph(v1 | v2 | {z}, [e | {z} for e in h1.edges] + [v1 | f for f in h2.edges])


def is_z_decomposable(h: Hypergraph, z: int) -> bool:
    """Whether every hyperedge e with z in e\\f satisfies e\\{z} subset of f.

    Equivalently h is the gluing of two hypergraphs at z.
    """
    return type(_split_masks(h.edge_masks, 1 << h.position(z))) is tuple


def split_at(h: Hypergraph, z: int) -> tuple[Hypergraph, Hypergraph]:
    """Invert a gluing: (h1, h2) with glue(h1, h2, z) == h.

    V1 is the union of e \\ {z} over hyperedges containing z and V2 holds
    the remaining vertices. (A hypergraph can decompose at z in more than
    one way when no hyperedge avoids z; this choice is the canonical one.)
    """
    zb = 1 << h.position(z)
    split = _split_masks(h.edge_masks, zb)
    if type(split) is not tuple:
        raise HypergraphError(f"not z-decomposable at vertex {z}")
    u, e1, e2 = split
    v2 = ((1 << h.n) - 1) & ~u & ~zb
    return (Hypergraph(h.edge_set(u), map(h.edge_set, e1)),
            Hypergraph(h.edge_set(v2), map(h.edge_set, e2)))


@dataclass(frozen=True)
class HLeaf:
    """Decomposition leaf: a hypergraph with no vertices (edges in {[], [{}]})."""
    base: Hypergraph

    def __post_init__(self):
        if self.base.n != 0:
            raise HypergraphError("leaf must have zero vertices")


class PreorderView:
    """A tree node as a view (items, i) of its tree's preorder: ``items``
    lists the nodes' labels and the leaves (of the subclass's ``LEAF``
    type; ``_LABEL`` names the label in ``repr``), left subtree first, and
    the node is the subtree that starts at ``items[i]``. The label,
    ``left`` and ``right`` are read from the list. ``right`` needs the end
    of the left subtree; the ends of all subtrees are computed once per
    list, in one reversed pass, and shared by every view of it. The
    decompositions return ``_view`` of their own list, so they build no
    node. The constructor copies [label] + the items of ``left`` + those
    of ``right`` into a new list, so hand-built and decomposed trees have
    one representation. Trees compare and hash by ``marked_preorder``, a
    slice of the list, without recursion.
    """

    __slots__ = ("_items", "_i", "_ends")

    def __init__(self, label, left, right):
        self._items = [label, *self._tree_items(left), *self._tree_items(right)]
        self._i = 0
        self._ends: list[int] = []  # every subtree's end, filled on first use

    @classmethod
    def _view(cls, items: list, i: int, ends: list):
        """The subtree that starts at ``items[i]``: the leaf itself, or a
        view that shares the list ``ends`` with every view of ``items``."""
        if isinstance(items[i], cls.LEAF):
            return items[i]
        node = object.__new__(cls)
        node._items, node._i, node._ends = items, i, ends
        return node

    @classmethod
    def _tree_items(cls, tree) -> list:
        """The preorder items of a tree: its slice for a node, the leaf
        itself for a leaf."""
        if isinstance(tree, cls):
            return tree._slice()
        if isinstance(tree, cls.LEAF):
            return [tree]
        raise TypeError(f"a {cls.__name__} child must be {cls.__name__} or "
                        f"{cls.LEAF.__name__}, not {type(tree).__name__}")

    @property
    def _label(self):
        return self._items[self._i]

    @property
    def left(self):
        return self._view(self._items, self._i + 1, self._ends)

    @property
    def right(self):
        return self._view(self._items, self._end(self._i + 1), self._ends)

    def _end(self, j: int) -> int:
        if not self._ends:
            self._ends.extend(_subtree_ends(self._items, self.LEAF))
        return self._ends[j]

    def _slice(self) -> list:
        """The items of this subtree; a view at 0 spans its whole list."""
        i = self._i
        return self._items[i:self._end(i)] if i else self._items

    def __eq__(self, other):
        return type(other) is type(self) and self._slice() == other._slice()

    def __hash__(self):
        return hash(tuple(self._slice()))

    def __repr__(self):
        head = f"{type(self).__name__}({self._LABEL}="
        return fold_preorder(self._slice(), repr,
                             lambda x, l, r: f"{head}{x!r}, left={l}, right={r})",
                             self.LEAF)


class HNode(PreorderView):
    """Gluing node: recompose as glue(recompose(left), recompose(right), z).
    A view of the preorder ``gluing_preorder`` lists (``PreorderView``)."""

    __slots__ = ()
    LEAF = HLeaf
    _LABEL = "z"
    z = PreorderView._label


def _subtree_ends(items: list, leaf_type: type) -> list[int]:
    """ends[j] is one past the last item of the subtree that starts at
    ``items[j]``. Reversed preorder meets both subtrees of a node before
    the node, the left one last, so a stack of the pending subtrees' ends
    holds the left subtree's end on top and the right one's, which is
    the node's, below it."""
    ends = [0] * len(items)
    pending: list[int] = []
    for j in range(len(items) - 1, -1, -1):
        if isinstance(items[j], leaf_type):
            pending.append(j + 1)
        else:
            pending.pop()
        ends[j] = pending[-1]
    return ends


DecompositionTree = Union[HLeaf, HNode]

# the two possible leaves, without and with the empty hyperedge
_LEAVES = (HLeaf(Hypergraph([], [])), HLeaf(Hypergraph([], [set()])))


def gluing_split(vm: int, masks) -> Optional[tuple[int, tuple[int, list[int], list[int]]]]:
    """The lowest bit zb of the vertex mask ``vm`` at which the hyperedge
    masks are z-decomposable, with their split (U_z, E1, E2) at zb (see
    ``_split_masks``), or None when no bit of ``vm`` is a gluing vertex.

    A failing candidate drops from the scan both itself and every vertex
    of its conflict mask, none of which is a gluing vertex by the conflict
    lemma (module docstring), so the lowest passing bit is found with
    fewer tests than one per bit below it.
    """
    rest = vm
    while rest:
        zb = rest & -rest
        split = _split_masks(masks, zb)
        if type(split) is tuple:
            return zb, split
        rest &= ~(zb | split)
    return None


def gluing_preorder(h: Hypergraph) -> Optional[list]:
    """The gluing decomposition of ``h`` in preorder, or None when ``h`` is
    not 1-Sperner.

    Items are the gluing vertex ids of the nodes, left subtree first, and
    the leaves as ``HLeaf``. At every level the smallest vertex id z at
    which the level is z-decomposable is used. Every level works on masks
    over the input's positions: a level is a vertex mask V and its
    hyperedge masks, and its constituents at z are (U_z, {e \\ {z}}) and
    (V \\ U_z \\ {z}, {f \\ U_z}). Theorem: z is a gluing vertex iff
    U_z is a subset of I_z (module docstring), a test that depends only on
    the level's sets. Positions follow the sorted ids, so the lowest bit of
    V that passes the test is the smallest-id gluing vertex of the level,
    the vertex the definition picks; ``gluing_split`` finds it. An
    explicit stack replaces recursion, so depth is limited by memory only.

    The tree itself certifies 1-Spernerness, by the gluing lemma (module
    docstring): each split is exact, so a level is the gluing of its
    children, and a zero-vertex leaf holds at most one hyperedge. Hence
    the input is 1-Sperner iff every level has a gluing vertex and no node
    has V1 in E1 and the empty set in E2; None is returned otherwise.
    """
    ids = h.vertices
    order: list = []
    todo = [((1 << h.n) - 1, h.edge_masks)]
    while todo:
        vm, masks = todo.pop()
        if not vm:
            order.append(_LEAVES[bool(masks)])
            continue
        found = gluing_split(vm, masks)
        if found is None:
            return None
        zb, (u, e1, e2) = found
        if u in e1 and 0 in e2:
            return None
        order.append(ids[zb.bit_length() - 1])
        todo.append((vm & ~u & ~zb, e2))
        todo.append((u, e1))
    return order


def decompose(h: Hypergraph) -> DecompositionTree:
    """Gluing decomposition of a 1-Sperner hypergraph.

    At every step the smallest vertex id z at which the hypergraph is
    z-decomposable is used; such a vertex exists for every nonempty
    1-Sperner hypergraph, and both constituents are again 1-Sperner.
    Raises NotOneSpernerError (with a witness pair) otherwise.

    The levels are those of ``gluing_preorder``, whose tree certifies
    1-Spernerness by the gluing lemma. The O(m^2) pair scan runs only when
    that certificate fails, to name the witness pair. The tree is an
    ``HNode`` view of the scan's preorder list, so no node is built; an
    input with no vertex gives its leaf.
    """
    order = gluing_preorder(h)
    if order is None:
        raise _not_one_sperner(h)
    return HNode._view(order, 0, [])


def _not_one_sperner(h: Hypergraph) -> HypergraphError:
    """The error for an input whose decomposition fails: NotOneSpernerError
    with the pair scan's first witness, or, should the scan find none, the
    error of a gluing search that missed a 1-Sperner level."""
    bad = one_sperner_violation(h)
    if bad is None:
        return HypergraphError("no gluing vertex found in a 1-Sperner hypergraph")
    return NotOneSpernerError(*bad)


def marked_preorder(tree) -> tuple:
    """The leaves of ``tree`` and the labels of its inner nodes, in
    preorder: a copy of the stored list's slice for a ``PreorderView``,
    the leaf alone for a leaf. Leaves and labels differ in type, and a
    full binary tree is fixed by its preorder with leaves marked, so two
    trees are equal iff these tuples are."""
    return tuple(tree._slice()) if isinstance(tree, PreorderView) else (tree,)


def preorder_depths(tree, leaf_type: type = HLeaf) -> Iterator[tuple[object, int]]:
    """(item, depth) for every item of ``marked_preorder(tree)``: the one
    walk of both tree printers. A node's children follow it, left first,
    so a stack of the depths still to come gives every item its depth."""
    depths = [0]
    for x in marked_preorder(tree):
        depth = depths.pop()
        yield x, depth
        if not isinstance(x, leaf_type):
            depths += (depth + 1, depth + 1)


def fold_preorder(order: list, leaf, node, leaf_type: type = HLeaf):
    """Fold a tree given in preorder bottom-up, without recursion:
    ``leaf(x)`` for each item x of ``leaf_type`` and ``node(x, left,
    right)`` for the other items, the nodes' labels. Reversed preorder
    meets both subtrees of an item before the item, the left one last.
    The list is a stored one (``marked_preorder``, ``gluing_preorder``)."""
    built: list = []
    for x in reversed(order):
        if isinstance(x, leaf_type):
            built.append(leaf(x))
        else:
            left = built.pop()
            built.append(node(x, left, built.pop()))
    return built[0]


def recompose(tree: DecompositionTree) -> Hypergraph:
    """The hypergraph a decomposition tree glues together.

    Leaves have no vertices, so the vertex set is the set of the nodes'
    z; a z that occurs twice raises HypergraphError. Masks are over the
    sorted z's.

    Theorem: a leaf that holds the empty hyperedge contributes one
    hyperedge, the OR over the nodes on its root path of {z} where the
    path turns left and of the left subtree's vertex set where it turns
    right; the other leaf contributes none. Proof: glue(H1, H2, z) maps a
    hyperedge e of H1 to {z} + e and f of H2 to V1 + f, so unfolding it
    from the leaf up adds one of these per node on the path to the
    leaf's only hyperedge, the empty one.

    So one forward pass over the preorder suffices. ``path`` is the OR
    for the current item. ``turns`` keeps, per node whose left subtree
    the pass is in, the node's ``path`` and the z's seen up to the node.
    In preorder the right turn at a node comes right after its left
    subtree, so the left subtree's vertex set is the z's seen since the
    node, and no hyperedge list is copied at any node.
    """
    items = marked_preorder(tree)
    frame = Hypergraph(x for x in items if not isinstance(x, HLeaf))
    pos = frame._pos
    masks = []
    path = seen = 0
    turns = []
    for x in items:
        if isinstance(x, HLeaf):
            if x.base.edge_masks:
                masks.append(path)
            if turns:
                path, at = turns.pop()
                path |= seen ^ at
        else:
            zb = 1 << pos[x]
            seen |= zb
            turns.append((path, seen))
            path |= zb
    return Hypergraph.from_masks(frame.vertices, masks)


# ---------------------------------------------------------------------------
# Transversals
# ---------------------------------------------------------------------------

def dual_masks(masks: Iterable[int], n: int) -> tuple[int, ...]:
    """Minimal transversals of a mask family over n vertex positions.

    Sequential minimal-hitting-set extension: fold hyperedges in one at a
    time, keeping the family of minimal partial transversals. If the empty
    hyperedge is present there is no transversal and the result is empty.
    For the empty family the empty set is the unique minimal transversal.
    """
    edges = sorted(set(masks), key=lambda m: (popcount(m), m))
    if edges and edges[0] == 0:
        return ()
    trs = [0]
    for e in edges:
        hit = []
        miss = []
        for t in trs:
            (hit if t & e else miss).append(t)
        ext = set()
        em = e
        while em:
            b = em & -em
            em ^= b
            for t in miss:
                c = t | b
                if not any(x & c == x for x in hit):
                    ext.add(c)
        keep = []
        for c in sorted(ext, key=lambda m: (popcount(m), m)):
            if not any(k & c == k for k in keep):
                keep.append(c)
        trs = hit + keep
    return tuple(sorted(trs))


def transversal(h: Hypergraph) -> Hypergraph:
    """The hypergraph of inclusion-minimal transversals, on the same vertices.

    Convention: a hypergraph containing the empty hyperedge has no
    transversal at all, and the result has an empty hyperedge family; the
    hypergraph with no hyperedges has the single minimal transversal {}.
    With this convention transversal is involutive on Sperner hypergraphs.
    """
    return Hypergraph.from_masks(h.vertices, dual_masks(h.edge_masks, h.n))


def maximal_independent_masks(h: Hypergraph) -> tuple[int, ...]:
    """Maximal sets containing no hyperedge, as complements of minimal transversals."""
    full = (1 << h.n) - 1
    return tuple(sorted(full ^ t for t in dual_masks(h.edge_masks, h.n)))


# ---------------------------------------------------------------------------
# Co-occurrence and conformality
# ---------------------------------------------------------------------------

def co_occurrence_adjacency(h: Hypergraph) -> list[int]:
    """Adjacency masks (by vertex position) of the co-occurrence graph.

    Two vertices are adjacent iff some hyperedge contains both. Each
    hyperedge is ORed into the rows of its vertices, and the diagonal
    bits are cleared at the end.
    """
    adj = [0] * h.n
    for m in h.edge_masks:
        rest = m
        while rest:
            b = rest & -rest
            adj[b.bit_length() - 1] |= m
            rest ^= b
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def is_conformal(h: Hypergraph) -> bool:
    """Every clique of the co-occurrence graph lies inside some hyperedge.

    Checked on maximal cliques only, which suffices because any clique
    extends to a maximal one; they are enumerated lazily, so the check
    stops at the first clique that no hyperedge covers. Cliques include
    the empty set and all singletons, so a conformal hypergraph with
    vertices must cover each vertex, and a conformal hypergraph must have
    at least one hyperedge.
    """
    cliques = iter_maximal_cliques(co_occurrence_adjacency(h), h.n)
    return all(any(m & c == c for m in h.edge_masks) for c in cliques)


def is_conformal_on_tree(order: list) -> bool:
    """``is_conformal`` for a 1-Sperner hypergraph, folded over its gluing
    tree ``order`` (a ``gluing_preorder``) in O(n) steps, with no clique
    search.

    Per subtree H the fold keeps conf (every clique of the co-occurrence
    graph lies in a hyperedge), nonempty (H has a vertex), has (H has a
    hyperedge) and full (V(H) is a hyperedge). A leaf has no vertex, so
    its one clique is the empty set: conf = has = full = (E = {{}}), and
    nonempty is false. For H = glue(H1, H2, z), ``gluing_preorder``
    splits off V1 = U_z, the union of E1, so z co-occurs exactly with
    V1; a pair inside V2 co-occurs in H iff it does in H2. Hyperedges of
    H are {z} + e (e in E1) and V1 + f (f in E2).

    * H2 has a hyperedge. Then V1 lies in a hyperedge, so {z} + V1 is the
      largest clique through z, and it lies in a hyperedge iff V1 is in
      E1 (full1). A clique K without z is K1 + K2 with K1 inside V1 and
      K2 a clique of H2; when conf2, K2 lies in some f, and K in V1 + f.
      Conversely a clique C2 of H2 is one of H, and a hyperedge of H that
      holds it gives one of H2 (V1 + f gives f; {z} + e only holds the
      empty C2, which f holds too). So conf = full1 and conf2.
    * H2 has no hyperedge. A vertex of V2 lies in no hyperedge of H, an
      uncovered clique. With V2 empty, the cliques are C1 and {z} + C1
      for the cliques C1 of H1, and {z} + e holds them iff e holds C1.
      So conf = conf1 and not nonempty2.

    V is a hyperedge iff {z} + e = V for an e in E1, that is full =
    full1 and not nonempty2; has = has1 or has2.
    """
    def leaf(x: HLeaf):             # (conf, nonempty, has, full)
        e = bool(x.base.edge_masks)
        return e, False, e, e

    def node(z: int, left, right):
        (conf1, _, has1, full1), (conf2, nonempty2, has2, _) = left, right
        conf = conf2 and full1 if has2 else conf1 and not nonempty2
        return conf, True, has1 or has2, full1 and not nonempty2

    return fold_preorder(order, leaf, node)[0]

"""k-expressions: AST, s-expression parser/printer, evaluator, and the
clique-width-5 builders for the four decomposable graph classes.

A k-expression builds a labeled graph with the operations

* ``i(v)``     - create one vertex v labeled i,
* ``G1 + G2``  - disjoint union,
* ``rel i j``  - relabel every label-i vertex to j,
* ``adde i j`` - add every edge between label-i and label-j vertices.

The builders fold a matrix-partition decomposition tree bottom-up, with
no recursion: ``hypergraph.fold_preorder`` folds the tree's stored
preorder list of partitions and leaves. At every node z gets label 1;
the left child is relabeled into labels (2, 4) and the right child into
(3, 5), where the first label of each pair holds the child's z-side
vertices; then one add-edges operation is emitted per 1-entry of the
node's M[a,b] matrix between distinct parts (the *-entries lie inside a
child and the diagonal 1-entries are built by the children).
A relabel is emitted only when its source label occurs in the subtree,
and an add-edges only when both its labels do; the others change nothing
(see ``build_from_tree``). The expression length is counted as one token
per operator name, label literal, and vertex literal, and stays at most
60 per vertex.

``evaluate`` keeps one adjacency mask per leaf position; ``to_graph``
reads the graph from those masks, and the edge set is built only when
``edges`` is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .bitset import bits
from .decomposition import (DecompLeaf, GraphDecompositionTree, MPartition,
                            decompose_bigraph_2p3_free, decompose_cobigraph,
                            decompose_split_h_free, decompose_split_hbar_free,
                            m_matrix)
from .graphs import Graph, LabeledBigraph, LabeledSplitGraph
from .hypergraph import fold_preorder, marked_preorder


class ExpressionError(ValueError):
    pass


VertexId = Union[int, str]


@dataclass(frozen=True)
class Leaf:
    label: int
    vertex: VertexId

    def __post_init__(self):
        if self.label < 1:
            raise ExpressionError("labels are positive integers")


@dataclass(frozen=True)
class Union_:
    left: "KExpression"
    right: "KExpression"


@dataclass(frozen=True)
class Relabel:
    src: int
    dst: int
    sub: "KExpression"

    def __post_init__(self):
        if self.src == self.dst:
            raise ExpressionError("relabel needs two distinct labels")
        if self.src < 1 or self.dst < 1:
            raise ExpressionError("labels are positive integers")


@dataclass(frozen=True)
class AddEdges:
    i: int
    j: int
    sub: "KExpression"

    def __post_init__(self):
        if self.i == self.j:
            raise ExpressionError("add-edges needs two distinct labels")
        if self.i < 1 or self.j < 1:
            raise ExpressionError("labels are positive integers")


KExpression = Union[Leaf, Union_, Relabel, AddEdges]


def postorder(e: KExpression) -> list:
    """The nodes of ``e``, children before their parent and left before
    right. Every walker of the module runs over this list: expressions of
    deep decompositions are far deeper than the recursion limit."""
    order = []
    stack = [e]
    while stack:
        x = stack.pop()
        order.append(x)
        t = type(x)
        if t is Union_:
            stack.append(x.left)
            stack.append(x.right)
        elif t is not Leaf:
            stack.append(x.sub)
    order.reverse()
    return order


def max_label(e: KExpression, order: Optional[list] = None) -> int:
    """The largest label ``e`` uses; ``order`` is ``postorder(e)`` when
    the caller has it."""
    best = 0
    for x in postorder(e) if order is None else order:
        t = type(x)
        if t is Leaf:
            best = max(best, x.label)
        elif t is Relabel:
            best = max(best, x.src, x.dst)
        elif t is AddEdges:
            best = max(best, x.i, x.j)
    return best


def expression_length(e: KExpression) -> int:
    """Token count: every operator name, label literal, and vertex literal is one."""
    return sum(1 if type(x) is Union_ else 3 for x in postorder(e))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LabeledGraphValue:
    """Evaluation result: the vertex ids (ints first, then strs, each
    sorted) and their labels; ``positions`` holds the vertex id of each
    leaf, left to right, and ``adj`` per position the mask of the adjacent
    positions. The edge set ``edges`` is built on first read."""
    vertices: tuple[VertexId, ...]
    labels: dict
    positions: tuple[VertexId, ...]
    adj: tuple[int, ...]

    @cached_property
    def edges(self) -> frozenset:
        ids = self.positions
        # -(2 << p) keeps the bits above p: each edge once, from its lower end
        return frozenset(frozenset((ids[p], ids[q]))
                         for p, m in enumerate(self.adj) for q in bits(m & -(2 << p)))

    def to_graph(self) -> Graph:
        """As a Graph; requires the vertex ids to be exactly 0..n-1. Each
        position's adjacency mask is moved to its vertex id."""
        n = len(self.vertices)
        if self.vertices != tuple(range(n)):
            raise ExpressionError("vertex ids are not contiguous 0-based integers")
        ids = self.positions
        adj = [0] * n
        for p, m in enumerate(self.adj):
            row = 0
            for q in bits(m):
                row |= 1 << ids[q]
            adj[ids[p]] = row
        return Graph.from_adj(adj)


def evaluate(e: KExpression, k: Optional[int] = None,
             order: Optional[list] = None) -> LabeledGraphValue:
    """Standard semantics; duplicate vertex ids and out-of-range labels
    error. ``order`` is ``postorder(e)`` when the caller has it."""
    ids, label_at, adj = _eval(postorder(e) if order is None else order)
    labels = dict(zip(ids, label_at))
    if k is not None:
        bad = [v for v, l in labels.items() if l > k]
        if bad:
            raise ExpressionError(f"label out of range 1..{k} on vertices {bad}")
    vs = tuple(sorted(labels, key=lambda v: (isinstance(v, str), v)))
    return LabeledGraphValue(vs, labels, tuple(ids), tuple(adj))


def _eval(order: list) -> tuple[list, list, list]:
    """The vertex id, label and adjacency mask of every leaf position of
    the expression whose ``postorder`` is ``order``.

    Leaves are numbered left to right, so every subtree holds a contiguous
    range of positions. A pending subtree is (first position, label ->
    position mask); add-edges ORs one label's mask into the adjacency mask
    of each position of the other label.
    """
    ids = []
    adj = []
    splits = []     # (first, middle, end) position of every union, in postorder
    pending = []
    for x in order:
        t = type(x)
        if t is Leaf:
            pending.append((len(ids), {x.label: 1 << len(ids)}))
            ids.append(x.vertex)
            adj.append(0)
        elif t is Union_:
            middle, right = pending.pop()
            first, left = pending[-1]
            splits.append((first, middle, len(ids)))
            for label, m in right.items():
                left[label] = left.get(label, 0) | m
        elif t is Relabel:
            classes = pending[-1][1]
            m = classes.pop(x.src, 0)
            if m:
                classes[x.dst] = classes.get(x.dst, 0) | m
        else:
            classes = pending[-1][1]
            mi = classes.get(x.i, 0)
            mj = classes.get(x.j, 0)
            if mi and mj:
                for p in bits(mi):
                    adj[p] |= mj
                for p in bits(mj):
                    adj[p] |= mi
    n = len(ids)
    if len(set(ids)) != n:
        for first, middle, end in splits:
            dup = set(ids[first:middle]) & set(ids[middle:end])
            if dup:
                raise ExpressionError(
                    f"duplicate vertex ids across union: {sorted(map(str, dup))}")
    label_at = [0] * n
    for label, m in pending[0][1].items():
        for p in bits(m):
            label_at[p] = label
    return ids, label_at, adj


# ---------------------------------------------------------------------------
# Parser / printer (s-expressions)
# ---------------------------------------------------------------------------

def format_expression(e: KExpression) -> str:
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is str:
            out.append(x)
        elif t is Leaf:
            out.append(f"(leaf {x.label} {_fmt_vertex(x.vertex)})")
        elif t is Union_:
            out.append("(union ")
            stack += (")", x.right, " ", x.left)
        elif t is Relabel:
            out.append(f"(rel {x.src} {x.dst} ")
            stack += (")", x.sub)
        else:
            out.append(f"(adde {x.i} {x.j} ")
            stack += (")", x.sub)
    return "".join(out)


def _fmt_vertex(v: VertexId) -> str:
    """``v<digits>`` for ids 0 and up; negative ids bare, as ``_vertex_id``
    reads them back."""
    return f"v{v}" if isinstance(v, int) and v >= 0 else str(v)


class ExpressionParseError(ExpressionError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# a parenthesis, or a maximal run of characters that are neither
# parentheses nor whitespace (``\s`` is exactly ``str.isspace``)
_TOKEN = re.compile(r"[()]|[^\s()]+")

# operator -> (node class, what each of its integer fields holds)
_OPERATORS = {"leaf": (Leaf, ("a label",)),
              "union": (Union_, ()),
              "rel": (Relabel, ("a source label", "a target label")),
              "adde": (AddEdges, ("a label", "a label"))}


def _parse_error(text: str, index: int, message: str) -> ExpressionParseError:
    """The error at token ``index`` (line 1, column 1 for -1, no tokens);
    columns count characters from the last newline."""
    if index < 0:
        return ExpressionParseError(message, 1, 1)
    off = [m.start() for m in _TOKEN.finditer(text)][index]
    return ExpressionParseError(message, text.count("\n", 0, off) + 1,
                                off - text.rfind("\n", 0, off))


def _vertex_id(s: str) -> VertexId:
    """An ASCII decimal literal, bare, negative or after ``v``, is an
    integer id; any other token (``v²`` among them) is a string id."""
    digits = s[1:] if s[0] in "-v" else s
    if not (digits.isascii() and digits.isdigit()):
        return s
    return int(digits) if s[0] == "v" else int(s)


def parse_expression(text: str) -> KExpression:
    """Parse the grammar
        expr := "(leaf" INT IDENT ")" | "(union" expr expr ")"
              | "(rel" INT INT expr ")" | "(adde" INT INT expr ")"
    Vertex idents of the form v<digits> (or bare, possibly negative,
    ASCII digits) become integer ids.

    One left-to-right pass over the tokens with a stack of open operators;
    errors name the line and column of the token where the input stops
    matching the grammar, and a node's label check reports at its operator.
    """
    toks = _TOKEN.findall(text)
    end = len(toks)

    def take(i: int) -> str:
        if i >= end:
            raise _parse_error(text, end - 1, "unexpected end of input")
        return toks[i]

    def close(i: int, frame: list):
        """The node of ``frame`` ([head index, class, fields...]), once
        token ``i`` is its closing parenthesis."""
        t = take(i)
        if t != ")":
            raise _parse_error(text, i, f"expected ')', found {t!r}")
        try:
            return frame[1](*frame[2:])
        except ExpressionError as exc:
            raise _parse_error(text, frame[0], str(exc)) from None

    vertices = []
    frames = []     # the open operators, outermost first
    pos = 0
    while True:
        t = take(pos)
        if t != "(":
            raise _parse_error(text, pos, f"expected '(', found {t!r}")
        head = pos + 1
        op = take(head)
        if op not in _OPERATORS:
            raise _parse_error(text, head, f"unknown operator {op!r}")
        cls, int_fields = _OPERATORS[op]
        frame = [head, cls]
        pos = head + 1
        for what in int_fields:
            t = take(pos)
            try:
                frame.append(int(t))
            except ValueError:
                raise _parse_error(text, pos, f"expected {what} (an integer), "
                                              f"found {t!r}") from None
            pos += 1
        if cls is not Leaf:
            frames.append(frame)
            continue
        t = take(pos)
        if t in ("(", ")"):
            raise _parse_error(text, pos, "expected a vertex identifier")
        frame.append(_vertex_id(t))
        vertices.append(frame[3])
        node = close(pos + 1, frame)
        pos += 2
        # hand the finished node to the open operators, closing each one
        # it completes; a union waits for its second operand
        while frames:
            frame = frames[-1]
            frame.append(node)
            if frame[1] is Union_ and len(frame) == 3:
                break
            frames.pop()
            node = close(pos, frame)
            pos += 1
        else:
            break
    if pos != end:
        raise _parse_error(text, pos, f"trailing input {toks[pos]!r}")
    if len(set(vertices)) != len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                raise ExpressionError(f"duplicate vertex id {v!r}")
            seen.add(v)
    return node


# ---------------------------------------------------------------------------
# Builders from decomposition trees
# ---------------------------------------------------------------------------

# left child: z-side labels collapse to 2, other side to 4; right child: 3 / 5
_LEFT_RELABELS = ((1, 2), (3, 2), (5, 4))
_RIGHT_RELABELS = ((1, 3), (2, 3), (4, 5))


def _cross_add_edges(a: int, b: int) -> list[tuple[int, int]]:
    """1-entries of M[a,b] strictly above the diagonal, outermost first."""
    mat = m_matrix(a, b)
    pairs = [(i + 1, j + 1) for i in range(5) for j in range(i + 1, 5)
             if mat[i][j] == 1]
    return sorted(pairs)


# (a, b) -> the cross add-edges of an M[a,b] node, innermost first
_CROSS_INNERMOST_FIRST = {(a, b): tuple(reversed(_cross_add_edges(a, b)))
                          for a in (0, 1) for b in (0, 1)}


def build_from_tree(tree: GraphDecompositionTree) -> Optional[KExpression]:
    """5-expression of the graph a decomposition tree describes; None for
    an empty tree.

    Leaves get label 1 on the z-side and 4 on the other side. At a node z
    gets label 1, the left child is relabeled into (2, 4) and the right
    child into (3, 5), and each cross 1-entry of M[a,b] becomes an
    add-edges; the label invariant (z-side in {1,2,3}, other side in
    {4,5}) holds at every level.

    Each subtree's label set is a 5-bit mask (bit i - 1 for label i): a
    leaf holds one label, a union the OR, a relabel moves a bit.
    ``rel i j`` is emitted only when label i is present, and ``adde i j``
    only when labels i and j both are. This changes no value: relabelling
    an absent label is the identity, and adding edges to an absent label
    class adds no edge. So the expression evaluates to the same labeled
    graph as the one with every operator, its labels stay in 1..5, and
    its length only shrinks.
    """

    def leaf(t: DecompLeaf):
        if t.vertex is None:
            return None
        label = 1 if t.on_z_side else 4
        return Leaf(label, t.vertex), 1 << label - 1

    def node(p: MPartition, left, right):
        acc: KExpression = Leaf(1, p.z)
        have = 1
        for sub, relabels in ((left, _LEFT_RELABELS), (right, _RIGHT_RELABELS)):
            if sub is None:
                continue
            e, m = sub
            for src, dst in relabels:
                if m >> src - 1 & 1:
                    e = Relabel(src, dst, e)
                    m = m ^ 1 << src - 1 | 1 << dst - 1
            acc = Union_(acc, e)
            have |= m
        for i, j in _CROSS_INNERMOST_FIRST[p.a, p.b]:
            if have >> i - 1 & 1 and have >> j - 1 & 1:
                acc = AddEdges(i, j, acc)
        return acc, have

    done = fold_preorder(marked_preorder(tree), leaf, node, DecompLeaf)
    return None if done is None else done[0]


def built(tree: GraphDecompositionTree) -> KExpression:
    """5-expression of a nonempty decomposition tree (``build_from_tree``)."""
    e = build_from_tree(tree)
    if e is None:
        raise ExpressionError("empty graph has no expression")
    return e


def build_split_h_free(ls: LabeledSplitGraph) -> KExpression:
    """5-expression of an H-free clique-Sperner split graph; independent-side
    labels end in {1,2,3} and clique-side labels in {4,5}."""
    return built(decompose_split_h_free(ls))


def build_split_hbar_free(ls: LabeledSplitGraph) -> KExpression:
    return built(decompose_split_hbar_free(ls))


def build_bigraph_2p3_free(lb: LabeledBigraph) -> KExpression:
    return built(decompose_bigraph_2p3_free(lb))


def build_cobigraph(g: Graph) -> KExpression:
    return built(decompose_cobigraph(g))

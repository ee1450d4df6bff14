"""k-expressions: AST, s-expression parser/printer, evaluator, and the
clique-width-5 builders for the four decomposable graph classes.

A k-expression builds a labeled graph with the operations

* ``i(v)``     - create one vertex v labeled i,
* ``G1 + G2``  - disjoint union,
* ``rel i j``  - relabel every label-i vertex to j,
* ``adde i j`` - add every edge between label-i and label-j vertices.

The builders walk a matrix-partition decomposition tree. At every node z
gets label 1; the left child is relabeled into labels (2, 4) and the
right child into (3, 5), where the first label of each pair holds the
child's z-side vertices; then one add-edges operation is emitted per
1-entry of the node's M[a,b] matrix between distinct parts (the *-entries
lie inside a child and the diagonal 1-entries are built by the children).
The expression length is counted as one token per operator name, label
literal, and vertex literal, and stays at most 60 per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .decomposition import (DecompLeaf, GraphDecompositionTree,
                            decompose_bigraph_2p3_free, decompose_cobigraph,
                            decompose_split_h_free, decompose_split_hbar_free,
                            m_matrix)
from .graphs import Graph, LabeledBigraph, LabeledSplitGraph


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


def max_label(e: KExpression) -> int:
    if isinstance(e, Leaf):
        return e.label
    if isinstance(e, Union_):
        return max(max_label(e.left), max_label(e.right))
    if isinstance(e, Relabel):
        return max(e.src, e.dst, max_label(e.sub))
    return max(e.i, e.j, max_label(e.sub))


def expression_length(e: KExpression) -> int:
    """Token count: every operator name, label literal, and vertex literal is one."""
    if isinstance(e, Leaf):
        return 3
    if isinstance(e, Union_):
        return 1 + expression_length(e.left) + expression_length(e.right)
    return 3 + expression_length(e.sub)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledGraphValue:
    """Evaluation result: vertex ids, their labels, and the edge set."""
    vertices: tuple[VertexId, ...]
    labels: dict
    edges: frozenset

    def to_graph(self) -> Graph:
        """As a Graph; requires the vertex ids to be exactly 0..n-1."""
        ids = sorted(self.vertices, key=lambda v: (isinstance(v, str), v))
        if ids != list(range(len(ids))):
            raise ExpressionError("vertex ids are not contiguous 0-based integers")
        return Graph(len(ids), [tuple(sorted(e)) for e in self.edges])


def evaluate(e: KExpression, k: Optional[int] = None) -> LabeledGraphValue:
    """Standard semantics; duplicate vertex ids and out-of-range labels error."""
    labels, edges = _eval(e)
    if k is not None:
        bad = [v for v, l in labels.items() if l > k]
        if bad:
            raise ExpressionError(f"label out of range 1..{k} on vertices {bad}")
    vs = tuple(sorted(labels, key=lambda v: (isinstance(v, str), v)))
    return LabeledGraphValue(vs, labels, frozenset(edges))


def _eval(e: KExpression) -> tuple[dict, set]:
    if isinstance(e, Leaf):
        return {e.vertex: e.label}, set()
    if isinstance(e, Union_):
        l1, s1 = _eval(e.left)
        l2, s2 = _eval(e.right)
        dup = set(l1) & set(l2)
        if dup:
            raise ExpressionError(f"duplicate vertex ids across union: {sorted(map(str, dup))}")
        l1.update(l2)
        return l1, s1 | s2
    if isinstance(e, Relabel):
        labels, edges = _eval(e.sub)
        for v, l in labels.items():
            if l == e.src:
                labels[v] = e.dst
        return labels, edges
    labels, edges = _eval(e.sub)
    side_i = [v for v, l in labels.items() if l == e.i]
    side_j = [v for v, l in labels.items() if l == e.j]
    for u in side_i:
        for v in side_j:
            edges.add(frozenset((u, v)))
    return labels, edges


# ---------------------------------------------------------------------------
# Parser / printer (s-expressions)
# ---------------------------------------------------------------------------

def format_expression(e: KExpression) -> str:
    if isinstance(e, Leaf):
        return f"(leaf {e.label} {_fmt_vertex(e.vertex)})"
    if isinstance(e, Union_):
        return f"(union {format_expression(e.left)} {format_expression(e.right)})"
    if isinstance(e, Relabel):
        return f"(rel {e.src} {e.dst} {format_expression(e.sub)})"
    return f"(adde {e.i} {e.j} {format_expression(e.sub)})"


def _fmt_vertex(v: VertexId) -> str:
    return f"v{v}" if isinstance(v, int) else str(v)


class ExpressionParseError(ExpressionError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    out = []
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()":
            out.append((c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append((text[i:j], line, col))
            col += j - i
            i = j
    return out


def parse_expression(text: str) -> KExpression:
    """Parse the grammar
        expr := "(leaf" INT IDENT ")" | "(union" expr expr ")"
              | "(rel" INT INT expr ")" | "(adde" INT INT expr ")"
    Vertex idents of the form v<digits> (or bare digits) become integer ids.
    """
    toks = _tokenize(text)
    pos = 0

    def peek():
        if pos >= len(toks):
            last = toks[-1] if toks else ("", 1, 1)
            raise ExpressionParseError("unexpected end of input", last[1], last[2])
        return toks[pos]

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def expect(sym):
        t = take()
        if t[0] != sym:
            raise ExpressionParseError(f"expected {sym!r}, found {t[0]!r}", t[1], t[2])
        return t

    def take_int(what):
        t = take()
        try:
            v = int(t[0])
        except ValueError:
            raise ExpressionParseError(f"expected {what} (an integer), found {t[0]!r}",
                                       t[1], t[2]) from None
        return v, t

    def take_vertex():
        t = take()
        s = t[0]
        if s in ("(", ")"):
            raise ExpressionParseError("expected a vertex identifier", t[1], t[2])
        if s.isdigit() or (s.startswith("-") and s[1:].isdigit()):
            return int(s)
        if s.startswith("v") and s[1:].isdigit():
            return int(s[1:])
        return s

    def expr() -> KExpression:
        expect("(")
        head = take()
        op = head[0]
        try:
            if op == "leaf":
                label, _ = take_int("a label")
                v = take_vertex()
                expect(")")
                return Leaf(label, v)
            if op == "union":
                l = expr()
                r = expr()
                expect(")")
                return Union_(l, r)
            if op == "rel":
                i, _ = take_int("a source label")
                j, _ = take_int("a target label")
                sub = expr()
                expect(")")
                return Relabel(i, j, sub)
            if op == "adde":
                i, _ = take_int("a label")
                j, _ = take_int("a label")
                sub = expr()
                expect(")")
                return AddEdges(i, j, sub)
        except ExpressionError as exc:
            if isinstance(exc, ExpressionParseError):
                raise
            raise ExpressionParseError(str(exc), head[1], head[2]) from None
        raise ExpressionParseError(f"unknown operator {op!r}", head[1], head[2])

    e = expr()
    if pos != len(toks):
        t = toks[pos]
        raise ExpressionParseError(f"trailing input {t[0]!r}", t[1], t[2])
    _check_distinct_vertices(e)
    return e


def _check_distinct_vertices(e: KExpression):
    seen = set()

    def walk(x):
        if isinstance(x, Leaf):
            if x.vertex in seen:
                raise ExpressionError(f"duplicate vertex id {x.vertex!r}")
            seen.add(x.vertex)
        elif isinstance(x, Union_):
            walk(x.left)
            walk(x.right)
        else:
            walk(x.sub)

    walk(e)


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


def build_from_tree(tree: GraphDecompositionTree) -> Optional[KExpression]:
    """5-expression of the graph a decomposition tree describes.

    Leaves get label 1 on the z-side and 4 on the other side; None for an
    empty subtree. The label invariant (z-side in {1,2,3}, other side in
    {4,5}) holds at every level.
    """
    if isinstance(tree, DecompLeaf):
        if tree.vertex is None:
            return None
        return Leaf(1 if tree.on_z_side else 4, tree.vertex)
    p = tree.partition
    acc: KExpression = Leaf(1, p.z)
    left = build_from_tree(tree.left)
    if left is not None:
        for src, dst in _LEFT_RELABELS:
            left = Relabel(src, dst, left)
        acc = Union_(acc, left)
    right = build_from_tree(tree.right)
    if right is not None:
        for src, dst in _RIGHT_RELABELS:
            right = Relabel(src, dst, right)
        acc = Union_(acc, right)
    for i, j in reversed(_cross_add_edges(p.a, p.b)):
        acc = AddEdges(i, j, acc)
    return acc


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

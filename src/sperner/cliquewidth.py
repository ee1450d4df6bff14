"""k-expressions: postfix op lists with node views, an s-expression
parser/printer, an evaluator, and the clique-width-5 builders for the
four decomposable graph classes.

A k-expression builds a labeled graph with the operations

* ``i(v)``     - create one vertex v labeled i,
* ``G1 + G2``  - disjoint union,
* ``rel i j``  - relabel every label-i vertex to j,
* ``adde i j`` - add every edge between label-i and label-j vertices.

An expression is stored as its postfix op list: ``(LEAF, label,
vertex)``, ``(UNION,)``, ``(REL, src, dst)`` and ``(ADDE, i, j)``, each
operand before its operator and the left operand of a union before the
right one. ``Leaf``, ``Union_``, ``Relabel`` and ``AddEdges`` are views
(ops, index) of that list, as ``hypergraph.PreorderView`` is for trees:
the node is the subexpression whose last op is ``ops[index]``, and its
fields and operands are read from the list. The builder and the parser
emit one list and return one view of it; the readers (``evaluate``,
``max_label``, ``expression_length``, ``format_expression`` and
``domination._dp``) make one pass over the list (``postfix``) with no
node object and no tree walk, so expressions far deeper than the
recursion limit work everywhere. A constructor such as
``Union_(left, right)`` copies its operands' ops into a new list, so
hand-built and built expressions compare and hash as list slices.

The builders fold a matrix-partition decomposition tree in one pass over
its stored preorder list. At every node z gets label 1; the left child
is relabeled into labels (2, 4) and the right child into (3, 5), where
the first label of each pair holds the child's z-side vertices; then one
add-edges operation is emitted per 1-entry of the node's M[a,b] matrix
between distinct parts (the *-entries lie inside a child and the
diagonal 1-entries are built by the children). A relabel is emitted only
when its source label occurs in the subtree, and an add-edges only when
both its labels do; the others change nothing (see ``build_from_tree``).
The expression length is counted as one token per operator name, label
literal, and vertex literal, and stays at most 60 per vertex.

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
from .decomposition import (DecompLeaf, GraphDecompositionTree,
                            decompose_bigraph_2p3_free, decompose_cobigraph,
                            decompose_split_h_free, decompose_split_hbar_free,
                            m_matrix)
from .graphs import Graph, LabeledBigraph, LabeledSplitGraph
from .hypergraph import marked_preorder


class ExpressionError(ValueError):
    pass


VertexId = Union[int, str]

# op codes: the first item of every op, spelled as the operator's name
LEAF, UNION, REL, ADDE = "leaf", "union", "rel", "adde"
_UNION = (UNION,)
_POSITIVE = "labels are positive integers"


def _label_error(code: str, a: int, b: int) -> Optional[str]:
    """Why a relabel or add-edges op on labels ``a`` and ``b`` is not
    legal, or None."""
    if a == b:
        return f"{'relabel' if code == REL else 'add-edges'} needs two distinct labels"
    if a < 1 or b < 1:
        return _POSITIVE
    return None


def _subtree_starts(ops: list) -> list[int]:
    """starts[j] is the index of the first op of the subexpression whose
    last op is ``ops[j]``: a stack of the pending operands' starts, where
    a union drops the right one's."""
    starts = [0] * len(ops)
    pending: list[int] = []
    for j, op in enumerate(ops):
        if op[0] == LEAF:
            pending.append(j)
        elif op[0] == UNION:
            pending.pop()
        starts[j] = pending[-1]
    return starts


class KExpression:
    """A k-expression as a view (ops, index) of a postfix op list (module
    docstring). ``_starts`` holds every subexpression's start, computed
    once per list on the first read of an operand and shared by every
    view of the list; a view at the last index spans its whole list and
    needs none. A constructor checks its labels as the parser does and
    copies its operands' ops."""

    __slots__ = ("_ops", "_at", "_starts")

    def _init(self, ops: list):
        self._ops, self._at, self._starts = ops, len(ops) - 1, []

    def _operand(self, at: int) -> "KExpression":
        return _view(self._ops, at, self._starts)

    def _start(self, at: int) -> int:
        if not self._starts:
            self._starts.extend(_subtree_starts(self._ops))
        return self._starts[at]

    def __eq__(self, other):
        return isinstance(other, KExpression) and postfix(self) == postfix(other)

    def __hash__(self):
        return hash(tuple(postfix(self)))

    def __repr__(self):
        done: list[str] = []
        for op in postfix(self):
            if op[0] == LEAF:
                done.append(f"Leaf(label={op[1]!r}, vertex={op[2]!r})")
            elif op[0] == UNION:
                right = done.pop()
                done[-1] = f"Union_(left={done[-1]}, right={right})"
            else:
                head = "Relabel(src" if op[0] == REL else "AddEdges(i"
                tail = "dst" if op[0] == REL else "j"
                done[-1] = f"{head}={op[1]!r}, {tail}={op[2]!r}, sub={done[-1]})"
        return done[0]


def _field(k: int) -> property:
    return property(lambda self: self._ops[self._at][k])


def _ops_of(e) -> list:
    if not isinstance(e, KExpression):
        raise TypeError(f"an operand must be a KExpression, not {type(e).__name__}")
    return postfix(e)


def _checked(code: str, a: int, b: int) -> tuple:
    error = _label_error(code, a, b)
    if error:
        raise ExpressionError(error)
    return code, a, b


class Leaf(KExpression):
    __slots__ = ()
    label = _field(1)
    vertex = _field(2)

    def __init__(self, label: int, vertex: VertexId):
        if label < 1:
            raise ExpressionError(_POSITIVE)
        self._init([(LEAF, label, vertex)])


class Union_(KExpression):
    __slots__ = ()

    def __init__(self, left: KExpression, right: KExpression):
        self._init([*_ops_of(left), *_ops_of(right), _UNION])

    @property
    def left(self) -> KExpression:
        return self._operand(self._start(self._at - 1) - 1)

    @property
    def right(self) -> KExpression:
        return self._operand(self._at - 1)


class Relabel(KExpression):
    __slots__ = ()
    src = _field(1)
    dst = _field(2)

    def __init__(self, src: int, dst: int, sub: KExpression):
        op = _checked(REL, src, dst)
        self._init([*_ops_of(sub), op])

    @property
    def sub(self) -> KExpression:
        return self._operand(self._at - 1)


class AddEdges(KExpression):
    __slots__ = ()
    i = _field(1)
    j = _field(2)
    sub = Relabel.sub

    def __init__(self, i: int, j: int, sub: KExpression):
        op = _checked(ADDE, i, j)
        self._init([*_ops_of(sub), op])


_VIEW_CLASS = {LEAF: Leaf, UNION: Union_, REL: Relabel, ADDE: AddEdges}


def _view(ops: list, at: Optional[int] = None, starts: Optional[list] = None) -> KExpression:
    """The subexpression whose last op is ``ops[at]`` (the whole list by
    default), as a view that shares ``starts`` with every view of
    ``ops``. The list must hold one expression whose ops passed the
    label checks: the builder's, the parser's, or a test's."""
    if at is None:
        at = len(ops) - 1
    e = object.__new__(_VIEW_CLASS[ops[at][0]])
    e._ops, e._at, e._starts = ops, at, [] if starts is None else starts
    return e


def postfix(e: KExpression) -> list:
    """The postfix op list of ``e``: the stored list itself for a view
    that spans it, a copy of its slice otherwise. Every reader makes one
    pass over it; none changes it."""
    ops, at = e._ops, e._at
    return ops if at == len(ops) - 1 else ops[e._start(at):at + 1]


def max_label(e: KExpression) -> int:
    """The largest label ``e`` uses."""
    best = 0
    for op in postfix(e):
        if op[0] == LEAF:
            best = max(best, op[1])
        elif op[0] != UNION:
            best = max(best, op[1], op[2])
    return best


def expression_length(e: KExpression) -> int:
    """Token count: every operator name, label literal, and vertex literal is one."""
    ops = postfix(e)
    return 3 * len(ops) - 2 * ops.count(_UNION)


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
            while m:
                low = m & -m
                row |= 1 << ids[low.bit_length() - 1]
                m ^= low
            adj[ids[p]] = row
        return Graph.from_adj(adj)


def evaluate(e: KExpression, k: Optional[int] = None) -> LabeledGraphValue:
    """Standard semantics; duplicate vertex ids and out-of-range labels
    error.

    One pass over ``postfix(e)``. Leaves are numbered left to right, and
    each pending operand is a map label -> mask of its positions with
    that label. Add-edges ORs one label's mask into the adjacency mask of
    each position of the other label.
    """
    ops = postfix(e)
    ids = []
    adj = []
    pending = []
    for op in ops:
        code = op[0]
        if code == LEAF:
            pending.append({op[1]: 1 << len(ids)})
            ids.append(op[2])
            adj.append(0)
        elif code == UNION:
            right = pending.pop()
            left = pending[-1]
            for label, m in right.items():
                left[label] = left.get(label, 0) | m
        elif code == REL:
            classes = pending[-1]
            m = classes.pop(op[1], 0)
            if m:
                classes[op[2]] = classes.get(op[2], 0) | m
        else:
            classes = pending[-1]
            mi = classes.get(op[1], 0)
            mj = classes.get(op[2], 0)
            if mi and mj:
                while mi:
                    low = mi & -mi
                    adj[low.bit_length() - 1] |= mj
                    mi ^= low
                mi = classes[op[1]]
                while mj:
                    low = mj & -mj
                    adj[low.bit_length() - 1] |= mi
                    mj ^= low
    if len(set(ids)) != len(ids):
        raise _duplicate_error(ops, ids)
    label_at = [0] * len(ids)
    for label, m in pending[0].items():
        while m:
            low = m & -m
            label_at[low.bit_length() - 1] = label
            m ^= low
    labels = dict(zip(ids, label_at))
    if k is not None:
        bad = [v for v, l in labels.items() if l > k]
        if bad:
            raise ExpressionError(f"label out of range 1..{k} on vertices {bad}")
    vs = tuple(sorted(labels, key=lambda v: (isinstance(v, str), v)))
    return LabeledGraphValue(vs, labels, tuple(ids), tuple(adj))


def _duplicate_error(ops: list, ids: list) -> ExpressionError:
    """The error of the first union, in postfix order, whose operands
    share a vertex id; ``ids`` are the leaves' ids left to right."""
    firsts = []     # the first position of every pending operand
    end = 0
    for op in ops:
        if op[0] == LEAF:
            firsts.append(end)
            end += 1
        elif op[0] == UNION:
            middle = firsts.pop()
            dup = set(ids[firsts[-1]:middle]) & set(ids[middle:end])
            if dup:
                return ExpressionError(
                    f"duplicate vertex ids across union: {sorted(map(str, dup))}")
    return ExpressionError("duplicate vertex ids")


# ---------------------------------------------------------------------------
# Parser / printer (s-expressions)
# ---------------------------------------------------------------------------

# a pending printed piece that ends a union's right operand (see below)
_GAP = " "


def format_expression(e: KExpression) -> str:
    """The s-expression text of ``e``, read back unchanged by
    ``parse_expression``; a string vertex id that would not read back
    raises ExpressionError (``_fmt_vertex``).

    One pass over the reversed postfix list, which meets every operator
    before its operands, the right one first, and prints the text back to
    front: an operator puts its ")" out and leaves its opening text, and a
    union the gap between its operands above that, on a stack; each leaf
    ends a subexpression and then takes texts off the stack up to the
    first gap, which ends a right operand."""
    out = []
    pending = []
    for op in reversed(postfix(e)):
        code = op[0]
        if code == LEAF:
            out.append(f"(leaf {op[1]} {_fmt_vertex(op[2])})")
            while pending:
                text = pending.pop()
                out.append(text)
                if text is _GAP:
                    break
        else:
            out.append(")")
            if code == UNION:
                pending += ("(union ", _GAP)
            else:
                pending.append(f"({code} {op[1]} {op[2]} ")
    out.reverse()
    return "".join(out)


def _fmt_vertex(v: VertexId) -> str:
    """``v<digits>`` for ids 0 and up; negative ids bare, as ``_vertex_id``
    reads them back. An int id with more digits than ``str`` prints
    (Python's limit on int-string conversion) raises ExpressionError. A
    string id prints as itself, and must read back as that string: one
    token (not empty, no whitespace or parenthesis) that is not a decimal
    literal."""
    if isinstance(v, int):
        try:
            return f"v{v}" if v >= 0 else str(v)
        except ValueError:
            raise ExpressionError(f"vertex id of {v.bit_length()} bits has more digits "
                                  f"than an int prints") from None
    if v.split() != [v] or "(" in v or ")" in v or _is_int_literal(v):
        raise ExpressionError(f"vertex id {v!r} does not print as a token that reads back")
    return v


class ExpressionParseError(ExpressionError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# a parenthesis, or a maximal run of characters that are neither
# parentheses nor whitespace (``\s`` is exactly ``str.isspace``)
_TOKEN = re.compile(r"[()]|[^\s()]+")

# operator name -> (op code, what each of its integer fields holds)
_OPERATORS = {LEAF: (LEAF, ("a label",)), UNION: (UNION, ()),
              REL: (REL, ("a source label", "a target label")),
              ADDE: (ADDE, ("a label", "a label"))}


def _parse_error(text: str, index: int, message: str) -> ExpressionParseError:
    """The error at token ``index`` (line 1, column 1 for -1, no tokens);
    columns count characters from the last newline."""
    if index < 0:
        return ExpressionParseError(message, 1, 1)
    off = [m.start() for m in _TOKEN.finditer(text)][index]
    return ExpressionParseError(message, text.count("\n", 0, off) + 1,
                                off - text.rfind("\n", 0, off))


def _is_int_literal(s: str) -> bool:
    """Whether the token s is an ASCII decimal literal, bare, negative or
    after ``v``."""
    digits = s[1:] if s[0] in "-v" else s
    return digits.isascii() and digits.isdigit()


def _vertex_id(text: str, toks: list, pos: int) -> VertexId:
    """The vertex id of ``toks[pos]``: an integer for a decimal literal
    (``_is_int_literal``), the token itself for any other (``v²`` among
    them). A literal with more digits than ``int`` reads (Python's limit
    on int-string conversion) raises ExpressionParseError at the token."""
    s = toks[pos]
    if not _is_int_literal(s):
        return s
    try:
        return int(s[1:]) if s[0] == "v" else int(s)
    except ValueError:
        raise _parse_error(text, pos, f"vertex id of {len(s)} characters has more "
                                      f"digits than an int reads") from None


def parse_expression(text: str) -> KExpression:
    """Parse the grammar
        expr := "(leaf" INT IDENT ")" | "(union" expr expr ")"
              | "(rel" INT INT expr ")" | "(adde" INT INT expr ")"
    Vertex idents of the form v<digits> (or bare, possibly negative,
    ASCII digits) become integer ids.

    The tokens are the text split at whitespace with its parentheses
    padded: ``_TOKEN``'s matches, as ``str.split`` and ``\\s`` agree on
    whitespace. One left-to-right pass over them keeps a stack of the
    open operators and appends each one's op at its closing parenthesis,
    so the ops come out in postfix order. Errors name the line and column
    of the token where the input stops matching the grammar (reading past
    the last token is the end of input), and an operator's label check
    reports at the operator once it closes.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    ops = []
    vertices = []
    # the open operators, outermost first: (head index, op, label error or
    # None), and None above a union whose first operand is open
    frames: list = []
    pos = 0
    try:
        while True:
            t = toks[pos]
            if t != "(":
                raise _parse_error(text, pos, f"expected '(', found {t!r}")
            head = pos + 1
            found = _OPERATORS.get(toks[head])
            if found is None:
                raise _parse_error(text, head, f"unknown operator {toks[head]!r}")
            code, fields = found
            pos = head + 1
            if code == UNION:
                frames += ((head, _UNION, None), None)
                continue
            try:
                a = int(toks[pos])
                if code != LEAF:
                    pos += 1
                    b = int(toks[pos])
            except ValueError:
                raise _parse_error(text, pos, f"expected {fields[pos - head - 1]} "
                                              f"(an integer), found {toks[pos]!r}") from None
            pos += 1
            if code != LEAF:
                frames.append((head, (code, a, b), _label_error(code, a, b)))
                continue
            t = toks[pos]
            if t == "(" or t == ")":
                raise _parse_error(text, pos, "expected a vertex identifier")
            v = _vertex_id(text, toks, pos)
            vertices.append(v)
            frame = (head, (LEAF, a, v), None if a >= 1 else _POSITIVE)
            pos += 1
            # close the leaf, then each open operator it completes, up to
            # a union that waits for its second operand
            while True:
                t = toks[pos]
                if t != ")":
                    raise _parse_error(text, pos, f"expected ')', found {t!r}")
                if frame[2]:
                    raise _parse_error(text, frame[0], frame[2])
                ops.append(frame[1])
                pos += 1
                if not frames:
                    break
                frame = frames.pop()
                if frame is None:
                    break
            if not frames:
                break
    except IndexError:
        raise _parse_error(text, len(toks) - 1, "unexpected end of input") from None
    if pos != len(toks):
        raise _parse_error(text, pos, f"trailing input {toks[pos]!r}")
    if len(set(vertices)) != len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                raise ExpressionError(f"duplicate vertex id {v!r}")
            seen.add(v)
    return _view(ops)


# ---------------------------------------------------------------------------
# Builders from decomposition trees
# ---------------------------------------------------------------------------

def _cross_add_edges(a: int, b: int) -> list[tuple[int, int]]:
    """1-entries of M[a,b] strictly above the diagonal, outermost first."""
    mat = m_matrix(a, b)
    pairs = [(i + 1, j + 1) for i in range(5) for j in range(i + 1, 5)
             if mat[i][j] == 1]
    return sorted(pairs)


def _relabels(pairs: tuple) -> list[tuple[tuple, int]]:
    """Per 5-bit label set m (bit i - 1 for label i) of a child: its
    relabel ops, innermost first, one per pair whose source label is
    present when it applies, and the label set after them."""
    table = []
    for m in range(32):
        ops = []
        for src, dst in pairs:
            if m >> src - 1 & 1:
                ops.append((REL, src, dst))
                m = m ^ 1 << src - 1 | 1 << dst - 1
        table.append((tuple(ops), m))
    return table


# left child: z-side labels collapse to 2, other side to 4; right child: 3 / 5
_CHILD_RELABELS = (_relabels(((1, 2), (3, 2), (5, 4))),
                   _relabels(((1, 3), (2, 3), (4, 5))))

# (a, b) -> per label set of an M[a,b] node: its cross add-edges ops on
# labels that are both present, innermost first
_CROSS_ADDE = {(a, b): [tuple((ADDE, i, j) for i, j in reversed(_cross_add_edges(a, b))
                              if have >> i - 1 & 1 and have >> j - 1 & 1)
                        for have in range(32)]
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

    One pass over the tree's preorder list emits the postfix ops. A node
    emits its z leaf on entry and opens a frame [partition, label set,
    children done]. When a child finishes, with its label set (0 for an
    empty leaf), the open node emits the child's relabels and a union;
    when both children are done, it emits its live add-edges and finishes
    in turn.
    """
    ops = []
    frames = []
    for x in marked_preorder(tree):
        if type(x) is not DecompLeaf:
            ops.append((LEAF, 1, x.z))
            frames.append([x, 1, 0])
            continue
        m = 0
        if x.vertex is not None:
            label = 1 if x.on_z_side else 4
            ops.append((LEAF, label, x.vertex))
            m = 1 << label - 1
        while frames:
            frame = frames[-1]
            if m:
                rels, m = _CHILD_RELABELS[frame[2]][m]
                ops += rels
                ops.append(_UNION)
                frame[1] |= m
            if not frame[2]:
                frame[2] = 1
                break
            frames.pop()
            p, m = frame[0], frame[1]
            ops += _CROSS_ADDE[p.a, p.b][m]
    return _view(ops) if ops else None


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

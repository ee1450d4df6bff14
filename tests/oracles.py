"""Independent brute-force oracles used to pin expected values.

Everything here is written directly from definitions by exhaustive
enumeration, deliberately sharing no code with the library paths it
checks: transversals by scanning all subsets, conformality by scanning all
vertex sets, 2-asummability by enumerating set pairs, regularity by
scanning every set for every vertex pair, thresholdness by enumerating
small integer weight vectors, domination by subset scan, and
induced-subgraph containment by trying all injections, and minimum
hyperedge covers by scanning combinations. The k-expression
evaluator, printer and parser at the end are the recursive definitions
the library's stack-based versions replaced, and the domination DP there
is the witness-tuple table the library's key-and-mask DP replaced. The
5-expression builder here is the recursive one that emitted every
relabel and add-edges of the construction, before the library's builder
left out those on absent labels. The
random 1-Sperner generator here glues every draw and runs the pairwise
1-Sperner check on the result, as the library's did before it tested the
gluing lemma on the parts instead. The gluing preorder here tests the
candidate vertices of a level one at a time, lowest first, as the
library's did before a failing candidate also ruled out the vertices of
its conflict. The hypergraph reader here looks vertex tokens up as
positions and shifts them to bits in a second pass, as the library's did
before it looked up the bits themselves. The M[a,b] decomposition core
here is the recursive join scan the library's replaced, before it found
z through the hypergraph gluing split; for the two complement classes it
decomposes as their base class and maps the tree back in a second pass,
as the library did before its core emitted M[1,b] nodes directly. The
gluing chain builder glues every candidate and runs the pairwise
1-Sperner check on it, as the chain builder of the tests did before it
tested the gluing lemma. The
maximal-clique enumeration is the recursive Bron-Kerbosch the library's
stack-based one replaced, and ``iter_maximal_cliques_by_max`` the
stack-based one as it was before it picked its pivot in one bit loop:
``max`` over a ``popcount`` key. ``separates_all_subsets_by_doubling``
is the exhaustive threshold check as it was before the subset sums
became lanes of one integer: a list of 2^n sums built by doubling. The M[a,b] partition check here takes the
parts as frozensets and tests every constrained pair by ``has_edge``, as
the library's did before partitions held vertex masks. The gluing-tree
recomposition and printer at the end walk the tree's nodes and fold the
hyperedge lists up the tree, as the library's did before gluing trees
became views of their preorder, and the reader there is the library's
before it summed each line's bits in one ``map``. ``preorder`` is the
(subtree, depth) walk over node objects that the library used before
both tree kinds became views of their preorder lists, and the M[a,b]
tree printer there reads it, as the library's did. ``postorder`` is the
node walk every k-expression reader of the library made before
expressions became views of their postfix op list. The graph reader
there keeps every line's token list before it checks an edge, as the
library's did before it counted the lines first.
"""

from __future__ import annotations

import itertools
import random
import re

from sperner.bitset import bits, popcount
from sperner.cliquewidth import (AddEdges, ExpressionError, ExpressionParseError,
                                 KExpression, Leaf, Relabel, Union_, VertexId)
from sperner.decomposition import (DecompLeaf, DecompNode, DecompositionError,
                                   GraphDecompositionTree, MPartition, m_matrix)
from sperner.hypergraph import (HLeaf, HNode, Hypergraph, fold_preorder, glue,
                                is_one_sperner)
from sperner.textio import ParseError, _checked_vertices, _header
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


def brute_maximal_cliques(adj: list[int], n: int) -> list[int]:
    """All maximal cliques by recursive Bron-Kerbosch with pivoting,
    sorted by (size, mask)."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = -1
        best = -1
        for u in bits(p | x):
            c = popcount(p & adj[u])
            if c > best:
                best = c
                pivot = u
        for v in bits(p & ~adj[pivot]):
            b = 1 << v
            bk(r | b, p & adj[v], x & adj[v])
            p ^= b
            x |= b

    bk(0, (1 << n) - 1, 0)
    out.sort(key=lambda m: (popcount(m), m))
    return out


def iter_maximal_cliques_by_max(adj: list[int], n: int):
    """Every maximal clique, in the order of the library's stack-based
    Bron-Kerbosch: the pivot is ``max`` over the bits of P | X of
    |P & N(u)|, the first maximal one."""
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        pivot = max(bits(p | x), key=lambda u: popcount(p & adj[u]))
        children = []
        for v in bits(p & ~adj[pivot]):
            b = 1 << v
            children.append((r | b, p & adj[v], x & adj[v]))
            p ^= b
            x |= b
        stack.extend(reversed(children))


def separates_all_subsets_by_doubling(h: Hypergraph, wint, tint) -> bool:
    """w(X) >= t exactly on the dependent X: a list of the 2^n subset sums
    built by doubling, so that sums[mask] = w(mask), compared with a
    dependence table scanned set by set."""
    sums = [0]
    for w in wint:
        sums += [x + w for x in sums]
    dep = bytes(any(e & x == e for e in h.edge_masks) for x in range(1 << h.n))
    return bytes(map(tint.__le__, sums)) == dep


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


def separates_mask_by_mask(h: Hypergraph, wint, tint) -> bool:
    """w(X) >= t exactly on the dependent X, one subset at a time."""
    for x in range(1 << h.n):
        weight = sum(w for i, w in enumerate(wint) if x >> i & 1)
        if (weight >= tint) != any(e & x == e for e in h.edge_masks):
            return False
    return True


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


def brute_min_cover_size(masks, vm: int):
    """The fewest masks of ``masks`` whose union is ``vm``, by scanning
    combinations in increasing size, or None when no family covers it."""
    for size in range(len(masks) + 1):
        for comb in itertools.combinations(masks, size):
            union = 0
            for e in comb:
                union |= e
            if union == vm:
                return size
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


def random_one_sperner_by_check(n: int, rng: random.Random,
                                empty_edge_prob: float = 0.6,
                                max_retries: int = 200) -> Hypergraph:
    """A random gluing tree on vertex ids 0..n-1, each gluing kept only if
    the glued hypergraph passes the pairwise 1-Sperner check."""

    def gen(lo: int, hi: int) -> Hypergraph:
        nv = hi - lo
        if nv == 0:
            if rng.random() < empty_edge_prob:
                return Hypergraph([], [set()])
            return Hypergraph([], [])
        for _ in range(max_retries):
            n1 = rng.randint(0, nv - 1)
            z = lo + n1
            h1 = gen(lo, z)
            h2 = gen(z + 1, hi)
            h = glue(h1, h2, z)
            if is_one_sperner(h):
                return h
        raise RuntimeError("failed to grow a 1-Sperner gluing")

    return gen(0, n)


def split_at_bit(masks, zb: int):
    """(U_z, E1, E2) of a gluing at the vertex bit ``zb``, or None when the
    masks are not z-decomposable (U_z not within I_z)."""
    u = 0
    i = -1
    for e in masks:
        if e & zb:
            e ^= zb
            if e & ~i:
                return None
            u |= e
        elif u & ~e:
            return None
        else:
            i &= e
    return u, [e ^ zb for e in masks if e & zb], [f & ~u for f in masks if not f & zb]


def gluing_preorder_lowest_first(h: Hypergraph):
    """The gluing decomposition of ``h`` in preorder (gluing vertex ids and
    ``HLeaf`` items), or None when ``h`` is not 1-Sperner: at every level
    each vertex is tested with ``split_at_bit``, lowest position first,
    until one passes."""
    leaves = (HLeaf(Hypergraph([], [])), HLeaf(Hypergraph([], [set()])))
    order = []
    todo = [((1 << h.n) - 1, h.edge_masks)]
    while todo:
        vm, masks = todo.pop()
        if not vm:
            order.append(leaves[bool(masks)])
            continue
        rest = vm
        split = None
        while rest and split is None:
            zb = rest & -rest
            split = split_at_bit(masks, zb)
            rest ^= zb
        if split is None or split[0] in split[1] and 0 in split[2]:
            return None
        u, e1, e2 = split
        order.append(h.vertices[zb.bit_length() - 1])
        todo.append((vm & ~u & ~zb, e2))
        todo.append((u, e1))
    return order


def read_hypergraph_by_positions(text: str) -> Hypergraph:
    """Hypergraph text read with a table from the canonical spellings
    "0" .. "n-1" to vertex positions, shifted to bits afterwards; other
    spellings go through the library's integer fallback."""
    n, head_ln, lines = _header(text, "hyperedge")
    pos = {str(v): v for v in range(n)}
    masks = []
    for ln, raw in enumerate(lines[head_ln:], head_ln + 1):
        toks = raw.split()
        if not toks:
            continue
        vs = list(map(pos.get, toks[1:]))
        if None in vs or toks[0] != str(len(vs)):
            vs = _checked_vertices(toks, n, ln)
        m = sum(map((1).__lshift__, vs))
        if m.bit_count() != len(vs):
            raise ParseError("repeated vertex inside a hyperedge", ln)
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise ParseError("duplicate hyperedges", head_ln)
    return Hypergraph.from_masks(range(n), masks)


# ---------------------------------------------------------------------------
# k-expressions: the recursive evaluator, printer and parser
# ---------------------------------------------------------------------------
# The library's versions walk explicit stacks; these are the plain
# recursive definitions they replaced, kept as the reference that
# tests/test_expression_oracle.py compares them with (values, text, and
# every error's type and message). They recurse once per nesting level.

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


def format_expression(e: KExpression) -> str:
    if isinstance(e, Leaf):
        return f"(leaf {e.label} {_fmt_vertex(e.vertex)})"
    if isinstance(e, Union_):
        return f"(union {format_expression(e.left)} {format_expression(e.right)})"
    if isinstance(e, Relabel):
        return f"(rel {e.src} {e.dst} {format_expression(e.sub)})"
    return f"(adde {e.i} {e.j} {format_expression(e.sub)})"


def _fmt_vertex(v: VertexId) -> str:
    if isinstance(v, int) and v < 0:
        return str(v)
    return f"v{v}" if isinstance(v, int) else str(v)


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
    Vertex idents of the form v<digits> (or bare, possibly negative,
    digits), in ASCII, become integer ids.
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
        if re.fullmatch("-?[0-9]+", s):
            return int(s)
        if re.fullmatch("v[0-9]+", s):
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
# k-expressions: the witness-tuple domination DP
# ---------------------------------------------------------------------------
# The table the library's ``domination._dp`` replaced: keys (selected
# label mask, dominated label mask), values (size, witness tuple sorted
# by ``str``), one table rebuilt per node and the least value per key
# kept by tuple comparison. tests/test_dp_oracle.py compares the two
# tables entry by entry, witness order included.

def postorder(e: KExpression) -> list:
    """The nodes of ``e``, children before their parent and left before
    right, read through ``left``/``right``/``sub`` on an explicit stack:
    the walk every expression reader of the library made before they
    read the postfix op list."""
    order = []
    stack = [e]
    while stack:
        x = stack.pop()
        order.append(x)
        if isinstance(x, Union_):
            stack += (x.left, x.right)
        elif not isinstance(x, Leaf):
            stack.append(x.sub)
    order.reverse()
    return order


def _merge(table: dict, key: tuple, size: int, wit: tuple):
    cur = table.get(key)
    if cur is None or (size, wit) < cur:
        table[key] = (size, wit)


def dp_table(e: KExpression, k: int) -> dict:
    full = (1 << k) - 1
    tables = []
    for x in postorder(e):
        t = type(x)
        if t is Leaf:
            b = 1 << (x.label - 1)
            tables.append({
                (b, full): (1, (x.vertex,)),       # select: the class is dominated
                (0, full ^ b): (0, ()),            # skip: the class is not
            })
            continue
        out: dict = {}
        if t is Union_:
            t2 = tables.pop()
            for (s1, d1), (n1, w1) in tables.pop().items():
                for (s2, d2), (n2, w2) in t2.items():
                    _merge(out, (s1 | s2, d1 & d2), n1 + n2,
                           tuple(sorted(w1 + w2, key=str)))
        elif t is Relabel:
            src = 1 << (x.src - 1)
            dst = 1 << (x.dst - 1)
            for (s, d), (n, w) in tables.pop().items():
                s2 = ((s | dst) if s & src else s) & ~src
                # dst merges both classes: dominated iff both were; src becomes
                # empty, hence dominated
                if (d & src) and (d & dst):
                    d2 = d | src | dst
                else:
                    d2 = (d | src) & ~dst
                _merge(out, (s2, d2), n, w)
        else:
            # AddEdges: a selected class dominates the whole other class
            bi = 1 << (x.i - 1)
            bj = 1 << (x.j - 1)
            for (s, d), (n, w) in tables.pop().items():
                d2 = d
                if s & bi:
                    d2 |= bj
                if s & bj:
                    d2 |= bi
                _merge(out, (s, d2), n, w)
        tables.append(out)
    return tables[0]


# ---------------------------------------------------------------------------
# Decomposition trees: the 5-expression builder with every operator
# ---------------------------------------------------------------------------
# At every node z gets label 1, the left child is relabeled 1->2, 3->2,
# 5->4 and the right child 1->3, 2->3, 4->5, and one add-edges follows per
# 1-entry of M[a,b] above the diagonal, whether or not its labels occur.
# It recurses once per tree level.

def build_from_tree_unpruned(tree):
    if isinstance(tree, DecompLeaf):
        if tree.vertex is None:
            return None
        return Leaf(1 if tree.on_z_side else 4, tree.vertex)
    p = tree.partition
    acc = Leaf(1, p.z)
    for child, relabels in ((tree.left, ((1, 2), (3, 2), (5, 4))),
                            (tree.right, ((1, 3), (2, 3), (4, 5)))):
        sub = build_from_tree_unpruned(child)
        if sub is not None:
            for src, dst in relabels:
                sub = Relabel(src, dst, sub)
            acc = Union_(acc, sub)
    mat = m_matrix(p.a, p.b)
    pairs = sorted((i + 1, j + 1) for i in range(5) for j in range(i + 1, 5)
                   if mat[i][j] == 1)
    for i, j in reversed(pairs):
        acc = AddEdges(i, j, acc)
    return acc


# ---------------------------------------------------------------------------
# M[a,b] partitions: the pairwise check on frozensets
# ---------------------------------------------------------------------------

def validate_m_partition_by_pairs(g: Graph, parts, a: int, b: int):
    """(ok, first violating pair) of five frozenset parts under M[a,b]:
    each constrained block is scanned pair by pair, u then v ascending.
    Raises DecompositionError when the parts overlap."""
    union: set = set()
    for p in parts:
        if union & p:
            raise DecompositionError("parts overlap")
        union |= p
    mat = m_matrix(a, b)
    plist = [sorted(p) for p in parts]
    for i in range(5):
        for j in range(i, 5):
            want = mat[i][j]
            if want == "*":
                continue
            for u in plist[i]:
                for v in plist[j]:
                    if u != v and g.has_edge(u, v) != bool(want):
                        return False, (u, v)
    return True, None


# ---------------------------------------------------------------------------
# Decomposition trees: the recursive M[a,b] join scan
# ---------------------------------------------------------------------------
# The library's ``decomposition._decompose_core`` as it was before it found
# z through ``hypergraph.gluing_split``: each z-side vertex is tried lowest
# first, with its neighbourhood walk and the part1-part4 join test, and
# both children are decomposed by recursion, once per tree level.
# tests/test_decomposition_core_oracle.py puts it in the library's place
# and compares trees as text and errors by type and message.

def decompose_core_join_scan(g: Graph, zside: int, other: int, a: int, b: int,
                             classname: str) -> GraphDecompositionTree:
    """Recursive M[a,b]-decomposition; ``zside`` holds z at every level.

    For the split case with (a, b) = (0, 1), zside = I and other = K; for
    the bigraph case with (0, 0), zside = A and other = B. For a = 1, g is
    the complement of the input: it is decomposed with (0, 1 - b) and
    the tree mapped back by ``transform_complement_tree``. The recursion
    relies on the class preconditions having been checked at the entry
    point: children inherit class membership.
    """
    if a == 1:
        tree = decompose_core_join_scan(g, zside, other, 0, 1 - b, classname)
        return transform_complement_tree(tree, a, b)
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
        partition = MPartition((zb, p1, p2, p3, p4), a, b)
        left = decompose_core_join_scan(g, p1, p3, a, b, classname)
        right = decompose_core_join_scan(g, p2, p4, a, b, classname)
        return DecompNode(partition, left, right)
    raise DecompositionError(
        f"no admissible decomposition vertex; input is not in class {classname}")


def transform_complement_tree(tree: GraphDecompositionTree, a: int, b: int
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
                      transform_complement_tree(tree.right, a, b),
                      transform_complement_tree(tree.left, a, b))


# ---------------------------------------------------------------------------
# Gluing chains: the builder with the pairwise 1-Sperner check
# ---------------------------------------------------------------------------

def gluing_chain_by_pair_check(steps: int, seed: int) -> Hypergraph:
    """``steps`` gluings of the current hypergraph to a zero-vertex side
    (no hyperedge, or the empty one) on either hand, drawn at random among
    the choices that keep it 1-Sperner, each choice glued and tested by
    the O(m^2) pair scan."""
    rng = random.Random(seed)
    h = Hypergraph([], [set()])
    for z in range(steps):
        choices = [(empty, left) for empty in (False, True) for left in (False, True)]
        rng.shuffle(choices)
        for empty, left in choices:
            side = Hypergraph([], [set()] if empty else [])
            glued = glue(h, side, z) if left else glue(side, h, z)
            if is_one_sperner(glued):
                h = glued
                break
    return h


# ---------------------------------------------------------------------------
# Trees walked node by node, and the reader before the one-map sum
# ---------------------------------------------------------------------------

def preorder(tree, leaf_type: type = HLeaf):
    """(subtree, depth) for every subtree of ``tree`` in preorder, left
    subtree first, from an explicit stack. Items of ``leaf_type`` are
    leaves and the others inner nodes with ``left`` and ``right``; this
    serves gluing trees (``HLeaf``) and M[a,b] trees (``DecompLeaf``)."""
    stack = [(tree, 0)]
    while stack:
        item = stack.pop()
        yield item
        t, depth = item
        if not isinstance(t, leaf_type):
            stack += ((t.right, depth + 1), (t.left, depth + 1))


def tree_to_text_by_walk(tree: GraphDecompositionTree) -> str:
    """``decomposition.tree_to_text``'s M[a,b] tree text, from the
    (subtree, depth) walk over node objects."""
    lines = []
    for t, depth in preorder(tree, DecompLeaf):
        pad = "  " * depth
        if isinstance(t, DecompNode):
            p = t.partition
            parts = ",".join("{" + ",".join(map(str, bits(s))) + "}" for s in p.parts[1:])
            lines.append(f"{pad}z={p.z} | parts: {parts} | M[{p.a},{p.b}]\n")
        elif t.vertex is None:
            lines.append(f"{pad}leaf empty\n")
        else:
            side = "z-side" if t.on_z_side else "other-side"
            lines.append(f"{pad}leaf v={t.vertex} ({side})\n")
    return "".join(lines)


def recompose_by_fold(tree) -> Hypergraph:
    """The hypergraph a gluing tree glues together, folded bottom-up over
    the tree's subtrees: every node concatenates {z} + e over its left
    part's hyperedges and V1 + f over its right part's."""
    order = [t for t, _ in preorder(tree)]
    frame = Hypergraph(t.z for t in order if isinstance(t, HNode))

    def node(t, left, right):
        (v1, e1), (v2, e2) = left, right
        zb = 1 << frame.position(t.z)
        return v1 | v2 | zb, [zb | e for e in e1] + [v1 | f for f in e2]

    _, masks = fold_preorder(order, lambda leaf: (0, leaf.base.edge_masks), node)
    return Hypergraph.from_masks(frame.vertices, masks)


def hyper_tree_text_by_walk(tree) -> str:
    """``sperner decompose``'s tree text, from the (subtree, depth) walk."""
    lines = []
    for t, depth in preorder(tree):
        pad = "  " * depth
        if isinstance(t, HLeaf):
            edges = "{}" if not t.base.edge_masks else "{{}}"
            lines.append(f"{pad}leaf edges={edges}")
        else:
            lines.append(f"{pad}z={t.z}")
    return "\n".join(lines)


def tokenized_lines_stripped(text: str):
    """(line number, tokens) of the non-blank lines, comments cut off by
    one split on "#" per line."""
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield i, body.split()


def header_by_token_lists(text: str, item: str) -> tuple[int, list]:
    """The vertex count and the (line number, tokens) of every line with
    a token, header first, after checking the 'n m' header and that m
    ``item`` lines follow it: the header check of the library's readers
    before they counted the lines first and split each one as they read
    it."""
    lines = list(tokenized_lines_stripped(text))
    if not lines:
        raise ParseError("empty input, expected 'n m' header", 1)
    ln, head = lines[0]
    if len(head) != 2:
        raise ParseError("header must be 'n m'", ln)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", ln) from None
    if n < 0 or m < 0:
        raise ParseError("header values must be non-negative", ln)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} {item} lines, found {len(lines) - 1}", ln)
    return n, lines


def read_graph_by_token_lists(text: str) -> Graph:
    """Graph text read as the library read it before: every line's token
    list kept (``header_by_token_lists``), then each edge checked."""
    n, lines = header_by_token_lists(text, "edge")
    adj = [0] * n
    for ln, toks in lines[1:]:
        if len(toks) != 2:
            raise ParseError("edge line must be 'u v'", ln)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", ln) from None
        if u == v:
            raise ParseError(f"loop at vertex {u}", ln)
        if not (0 <= u < v < n):
            raise ParseError(f"edge ({u},{v}) must satisfy 0 <= u < v < n", ln)
        if adj[u] >> v & 1:
            raise ParseError(f"duplicate edge ({u},{v})", ln)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph.from_adj(adj)


def read_hypergraph_by_bit_lists(text: str) -> Hypergraph:
    """Hypergraph text read with one table from the canonical spellings
    to vertex bits, building each line's list of bits; other spellings
    go through the library's integer fallback. The header is checked by
    ``header_by_token_lists``."""
    n, lines = header_by_token_lists(text, "hyperedge")
    bit_of = {str(v): 1 << v for v in range(n)}
    masks = []
    for ln, toks in lines[1:]:
        vbits = list(map(bit_of.get, toks[1:]))
        if None in vbits or toks[0] != str(len(vbits)):
            vbits = [1 << v for v in _checked_vertices(toks, n, ln)]
        mask = sum(vbits)
        if mask.bit_count() != len(vbits):
            raise ParseError("repeated vertex inside a hyperedge", ln)
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ParseError("duplicate hyperedges", lines[0][0])
    return Hypergraph.from_masks(range(n), masks)

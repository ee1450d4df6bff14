"""Text formats for hypergraphs, graphs, and certificates.

Hypergraph format: first line "n m", then m lines "k v1 ... vk" with
k >= 0 (k = 0 encodes the empty hyperedge); vertex ids are 0-based and
must be < n.

Graph format: first line "n m", then m lines "u v" with 0 <= u < v < n;
loops and duplicate edges are rejected.

All parse errors carry a 1-based line number. Certificates are printed as
exact fractions "p/q" (or plain integers), never as decimals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .graphs import Graph
from .hypergraph import Hypergraph
from .threshold import AsummabilityWitness, ThresholdWitness


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        loc = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


def _header(text: str, item: str) -> tuple[int, int, list[str]]:
    """The vertex count, the header's line number, and the text lines,
    comments cut off, after checking the 'n m' header and that m
    ``item`` lines (lines that hold a token) follow it. The lines are
    counted before any is split; a reader splits each line after the
    header as it reaches it and skips the blank ones, so no token list
    outlives its line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for ln, raw in enumerate(lines, start=1):
        head = raw.split()
        if head:
            break
    else:
        raise ParseError("empty input, expected 'n m' header", 1)
    if len(head) != 2:
        raise ParseError("header must be 'n m'", ln)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", ln) from None
    if n < 0 or m < 0:
        raise ParseError("header values must be non-negative", ln)
    # str.strip leaves a line empty iff it holds no token
    found = len(list(filter(str.strip, islice(lines, ln, None))))
    if found != m:
        raise ParseError(f"expected {m} {item} lines, found {found}", ln)
    return n, ln, lines


def read_hypergraph(text: str) -> Hypergraph:
    """Vertex tokens are looked up in one table from the canonical
    spellings "0" .. "n-1" to their vertex bits, and a line's mask is
    their sum; its size token must be the canonical spelling of its
    vertex count. A line with any other token or size is read with
    ``int()`` by ``_checked_vertices``, so other spellings and every error
    read as the plain integer parse gives them."""
    n, head_ln, lines = _header(text, "hyperedge")
    sizes = [str(k) for k in range(n + 1)]
    bit_of = {sizes[v]: 1 << v for v in range(n)}
    masks = []
    for ln, raw in enumerate(islice(lines, head_ln, None), head_ln + 1):
        toks = raw.split()
        if not toks:
            continue
        k = len(toks) - 1
        try:
            if k > n or toks[0] != sizes[k]:
                raise KeyError
            m = sum(map(bit_of.__getitem__, toks[1:]))
        except KeyError:
            m = sum(1 << v for v in _checked_vertices(toks, n, ln))
        # the bits of distinct vertices never carry
        if m.bit_count() != k:
            raise ParseError("repeated vertex inside a hyperedge", ln)
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise ParseError("duplicate hyperedges", head_ln)
    return Hypergraph.from_masks(range(n), masks)


def _checked_vertices(toks: list, n: int, ln: int) -> list:
    """The vertices of a hyperedge line "k v1 ... vk" read as integers,
    after checking the size, repeats and the range, in that order."""
    try:
        vals = list(map(int, toks))
    except ValueError:
        raise ParseError("hyperedge line must contain integers", ln) from None
    k, vs = vals[0], vals[1:]
    if k != len(vs):
        raise ParseError(f"declared size {k} but {len(vs)} vertices follow", ln)
    if len(set(vs)) != len(vs):
        raise ParseError("repeated vertex inside a hyperedge", ln)
    for v in vs:
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range 0..{n - 1}", ln)
    return vs


def write_hypergraph(h: Hypergraph) -> str:
    if h.vertices != tuple(range(h.n)):
        raise ValueError("text format requires contiguous 0-based vertex ids")
    out = [f"{h.n} {h.m}"]
    for e in h.edges:
        vs = sorted(e)
        out.append(" ".join([str(len(vs))] + [str(v) for v in vs]))
    return "\n".join(out) + "\n"


def read_graph(text: str) -> Graph:
    """Each edge line is split when the loop reaches it and checked at
    once; the adjacency masks are all that is kept."""
    n, head_ln, lines = _header(text, "edge")
    adj = [0] * n
    for ln, raw in enumerate(islice(lines, head_ln, None), head_ln + 1):
        toks = raw.split()
        if len(toks) != 2:
            if not toks:
                continue
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


def write_graph(g: Graph) -> str:
    es = g.edges()
    out = [f"{g.n} {len(es)}"]
    out += [f"{u} {v}" for u, v in es]
    return "\n".join(out) + "\n"


def frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def threshold_witness_to_text(h: Hypergraph, w: ThresholdWitness) -> str:
    out = [f"w {v} {frac(w.weights[i])}" for i, v in enumerate(h.vertices)]
    out.append(f"t {frac(w.threshold)}")
    return "\n".join(out) + "\n"


def asummability_witness_to_text(w: AsummabilityWitness) -> str:
    out = []
    for tag, fam in (("independent", w.independent), ("dependent", w.dependent)):
        for s in fam:
            out.append(f"{tag} {{{', '.join(str(v) for v in sorted(s))}}}")
    return "\n".join(out) + "\n"

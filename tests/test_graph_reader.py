"""The graph reader, which counts the edge lines before it splits any and
then splits and checks each line as it reaches it, against the reader
that kept every line's token list (``oracles.read_graph_by_token_lists``):
the same ``Graph`` or the same ``ParseError`` (message and line) on
mutated canonical texts, under every line separator ``str.splitlines``
knows."""

import random

from hypothesis import given, settings, strategies as st

from oracles import read_graph_by_token_lists
from sperner.generators import random_one_sperner
from sperner.graphs import Graph, edge_clique_split_of
from sperner.textio import ParseError, read_graph, write_graph

# every line boundary of str.splitlines; "\x1c" .. "\x1f" and "\x85" are
# whitespace too, so one inside a line also splits it
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029")
RESPELL = (lambda t: "+" + t, lambda t: "0" + t, lambda t: "-" + t,
           lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
           lambda t: t + "x", lambda t: t[:1] + "_" + t[1:] if len(t) > 1 else t)
MUTATIONS = ("comment line", "blank line", "trailing comment", "respell",
             "swap", "loop", "out of range", "extra token", "drop token",
             "duplicate", "header count", "header token", "negative header",
             "em space", "cut")


def outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def mutated_text(g: Graph, ops, sep: str) -> str:
    """The canonical text of ``g`` after ``ops``, each (mutation,
    number): the number picks the line, token or spelling the mutation
    acts on. Lines are joined with ``sep``."""
    head, *rows = write_graph(g).splitlines()
    head = head.split()
    lines = [row.split() for row in rows]
    cut = None
    for op, i in ops:
        j = i % (len(lines) + 1)
        row = lines[i % len(lines)] if lines else None
        if op == "comment line":
            lines.insert(j, ["# note"])
        elif op == "blank line":
            lines.insert(j, [" \t\u3000"[:1 + i % 3]])
        elif op == "header count":
            if len(head) > 1 and head[1].lstrip("-").isdigit():
                head[1] = str(int(head[1]) + (1 if i % 2 else -1))
        elif op == "header token":
            head.append("0") if i % 2 or not head else head.pop()
        elif op == "negative header":
            if len(head) > i % 2:
                head[i % 2] = "-" + head[i % 2]
        elif op == "cut":
            cut = i
        elif row is None or not row or row[0].startswith("#") or row[0].isspace():
            continue
        elif op == "trailing comment":
            row.append("#" + str(i))
        elif op == "respell":
            k = i % len(row)
            row[k] = RESPELL[i % len(RESPELL)](row[k])
        elif op == "swap":
            row.reverse()
        elif op == "loop":
            row[-1] = row[0]
        elif op == "out of range":
            row[i % len(row)] = str(g.n + i % 3) if i % 4 else "-1"
        elif op == "extra token":
            row.append(str(i % 5))
        elif op == "drop token":
            row.pop()
        elif op == "duplicate":
            lines.insert(j, list(row))
        elif op == "em space":
            row[0] = row[0] + "\u2003"
    text = sep.join([" ".join(head)] + [" ".join(row) for row in lines]) + sep
    return text if cut is None else text[:cut % (len(text) + 1)]


def small_graph(seed: int) -> Graph:
    return edge_clique_split_of(random_one_sperner(seed % 7, random.Random(seed))).g


@settings(max_examples=400)
@given(seed=st.integers(0, 10 ** 6),
       ops=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 999)),
                    max_size=4),
       sep=st.sampled_from(SEPARATORS))
def test_reader_against_the_token_list_reader(seed, ops, sep):
    g = small_graph(seed)
    text = mutated_text(g, ops, sep)
    got = outcome(read_graph, text)
    assert got == outcome(read_graph_by_token_lists, text), text
    if not ops:
        assert got == g


def test_mutations_reach_every_outcome():
    """The mutations give accepted non-canonical texts and every error of
    the header, the line count and an edge line."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cases = {
        (("respell", 0),): Graph,                               # "+0 1"
        (("respell", 3),): Graph,                               # Arabic-Indic
        (("comment line", 1), ("trailing comment", 2)): Graph,
        (("blank line", 2),): Graph,
        (("em space", 0),): Graph,
        (("respell", 4),): "edge endpoints must be integers",
        (("swap", 0),): "must satisfy 0 <= u < v < n",
        (("loop", 0),): "loop at vertex",
        (("out of range", 1),): "must satisfy 0 <= u < v < n",
        (("extra token", 0),): "edge line must be 'u v'",
        (("drop token", 0),): "edge line must be 'u v'",
        (("duplicate", 0), ("header count", 1)): "duplicate edge",
        (("header count", 1),): "expected 4 edge lines, found 3",
        (("header token", 1),): "header must be 'n m'",
        (("negative header", 0),): "header values must be non-negative",
        (("respell", 4), ("header count", 0)): "expected 2 edge lines",
        (("cut", 0),): "empty input",
        (("cut", 2),): "header must be 'n m'",
    }
    for ops, want in cases.items():
        for sep in SEPARATORS:
            text = mutated_text(g, ops, sep)
            got = outcome(read_graph, text)
            assert got == outcome(read_graph_by_token_lists, text), (ops, sep)
            if want is Graph:
                assert got == g, (ops, sep)
            else:
                assert want in got[1], (ops, sep, got)

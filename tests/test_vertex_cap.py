"""Header vertex counts: the caps, and readers whose memory follows the input.

A hypergraph header may declare at most ``textio.MAX_HYPERGRAPH_VERTICES``
vertices and a graph header at most ``textio.MAX_GRAPH_VERTICES``; a
larger one is a ParseError (exit 2, one error line) in every command that
reads a file, before anything of size n is allocated. The hypergraph
reader's spelling table starts at a size bounded by the text, not by the
declared n, and grows only by the spellings that occur. Both tree
printers write each line as they make it.
"""

import tracemalloc

import pytest

from oracles import read_hypergraph_by_bit_lists
from sperner import cli, textio
from sperner.hypergraph import Hypergraph
from test_preorder_views import outcome

HUGE = "99999999999999999999 0\n"


@pytest.mark.parametrize("argv, cap", [
    (["hyp-check"], textio.MAX_HYPERGRAPH_VERTICES),
    (["decompose"], textio.MAX_HYPERGRAPH_VERTICES),
    (["decompose", "--kind", "split-H"], textio.MAX_GRAPH_VERTICES),
    (["dominate"], textio.MAX_GRAPH_VERTICES),
    (["cwd"], textio.MAX_GRAPH_VERTICES),
], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_huge_header_exits_2_with_one_error_line(tmp_path, capsys, argv, cap):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 1: vertex count 99999999999999999999 above the cap {cap}\n"


def test_caps_are_inclusive(monkeypatch):
    monkeypatch.setattr(textio, "MAX_HYPERGRAPH_VERTICES", 10)
    monkeypatch.setattr(textio, "MAX_GRAPH_VERTICES", 12)
    assert textio.read_hypergraph("10 1\n1 9\n") == Hypergraph(range(10), [[9]])
    assert textio.read_graph("12 1\n0 11\n").n == 12
    with pytest.raises(textio.ParseError, match="vertex count 11 above the cap 10"):
        textio.read_hypergraph("11 0\n")
    with pytest.raises(textio.ParseError, match="vertex count 13 above the cap 12"):
        textio.read_graph("13 0\n")


def test_one_vertex_hyperedge_among_60000_vertices_reads_small():
    tracemalloc.start()
    try:
        h = textio.read_hypergraph("60000 1\n1 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n == 60_000 and h.edge_masks == (1,)
    assert peak < 32_000_000


def test_vertices_beyond_the_table_read_like_the_rest():
    """A short text starts the spelling table small; a higher vertex is
    added when its canonical spelling occurs, and every text reads as the
    reader with a table over all n vertices reads it, errors included."""
    texts = [
        "5000 3\n2 4999 7\n1 4000\n0\n",
        "5000 3\n2 4999 7\n2 7 4000\n1 4999\n",     # a table entry reused
        "5000 2\n2 04999 +7\n1 4000 \n",            # other spellings
        "5000 1\n2 4999 4999\n",
        "5000 1\n1 5000\n",
        "5000 1\n1 -4000\n",
        "5000 1\n1 4x\n",
        "5000 1\n1 \u0664\u0660\u0660\u0660\n",    # int() reads these digits
        "5000 2\n1 4999\n1 4999\n",
    ]
    for text in texts:
        got = outcome(textio.read_hypergraph, text)
        assert got == outcome(read_hypergraph_by_bit_lists, text), text
    assert textio.read_hypergraph(texts[0]) == Hypergraph(
        range(5000), [[7, 4999], [4000], []])


class CountingSink:
    """A stdout that keeps only the number of characters and lines."""

    def __init__(self):
        self.chars = self.lines = 0

    def write(self, s: str) -> int:
        self.chars += len(s)
        self.lines += s.count("\n")
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, n, lines", [
    (["decompose"], 3000, 6001),
    (["decompose", "--kind", "split-H"], 500, 999),
], ids=["gluing", "split-H"])
def test_decompose_writes_the_tree_as_it_goes(tmp_path, monkeypatch, argv, n, lines):
    """An edgeless header decomposes to a path, whose text has more than
    n^2 characters; the traced peak of the whole command stays below half
    of the text, which the text itself would fill."""
    path = tmp_path / "edgeless.txt"
    path.write_text(f"{n} 0\n")
    sink = CountingSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == lines and sink.chars > n * n
    assert peak < sink.chars / 2

"""An in-class graph whose M[a,b] decomposition is deeper than the
recursion limit goes through ``decompose`` and ``cwd`` then ``eval``.

A perfect matching on 1,200 edges is a 2P3-free right-Sperner bigraph.
Each level of its decomposition splits one edge off the rest, so the
tree is 1,200 levels deep, and so is the tree of its complement, a
cobigraph.
"""

import sys

import sperner.cli as cli
from sperner import textio
from sperner.graphs import Graph
from sperner.textio import write_graph

EDGES = 1200


def matching() -> Graph:
    return Graph(2 * EDGES, [(2 * i, 2 * i + 1) for i in range(EDGES)])


def depth(tree_text: str) -> int:
    lines = tree_text.splitlines()
    assert len(lines) == 2 * EDGES + 1      # EDGES nodes, EDGES + 1 leaves
    return max(len(x) - len(x.lstrip()) for x in lines) // 2


def test_matching_decomposes_as_a_bigraph(tmp_path, capsys):
    assert sys.getrecursionlimit() < EDGES
    path = tmp_path / "matching.graph"
    path.write_text(write_graph(matching()))
    assert cli.main(["decompose", str(path), "--kind", "bigraph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z=0 | parts: {},{2,4,")
    assert depth(out) == EDGES
    assert cli.main(["cwd", str(path), "--kind", "bigraph"]) == 0
    expr_path = tmp_path / "matching.expr"
    expr_path.write_text(capsys.readouterr().out)
    assert cli.main(["eval", str(expr_path)]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_matching_complement_decomposes_as_a_cobigraph(tmp_path, capsys, monkeypatch):
    """The complement has 2,877,600 edges; the graph reader is bypassed
    (the file holds a stand-in) because parsing that many edge lines costs
    far more time and memory than the decomposition under test."""
    assert sys.getrecursionlimit() < EDGES
    comp = matching().complement()
    monkeypatch.setattr(textio, "read_graph", lambda text: comp)
    path = tmp_path / "stand-in.graph"
    path.write_text("0 0\n")
    assert cli.main(["decompose", str(path), "--kind", "cobigraph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z=0 | parts: {2,4,") and "| M[1,1]\n" in out
    assert depth(out) == EDGES

"""The m <= n + 1 pre-check of ``gluing_preorder``.

A 1-Sperner hypergraph has at most n + 1 hyperedges, so a larger family
is rejected before any scan, with the answer the scan would give.
(The one-pass split itself is checked in ``test_conflict_elimination``.)
"""

from oracles import gluing_preorder_lowest_first
from sperner import cli, hypergraph
from sperner.hypergraph import Hypergraph, gluing_preorder
from sperner.textio import write_hypergraph
from test_conflict_elimination import random_families


def more_hyperedges_than_leaves():
    """Families with m > n + 1: the singletons with the empty and the
    full set, and seeded ones."""
    for n in (2, 3, 6):
        yield Hypergraph(range(n), [[], list(range(n))] + [[v] for v in range(n)])
    for h in random_families(400, 27):
        if h.m > h.n + 1:
            yield h


def test_more_hyperedges_than_leaves_is_not_one_sperner(monkeypatch):
    """No scan runs, and the answer is the scan's: None."""
    hs = list(more_hyperedges_than_leaves())
    assert len(hs) > 50
    calls = []
    monkeypatch.setattr(hypergraph, "_split_masks",
                        lambda masks, zb: calls.append(zb))
    for h in hs:
        assert gluing_preorder(h) is None, h
    assert calls == []
    monkeypatch.undo()
    for h in hs:
        assert gluing_preorder_lowest_first(h) is None, h


def cli_lines(path, command: str, capsys):
    code = cli.main([command, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_pre_check_leaves_the_cli_lines_unchanged(tmp_path, monkeypatch, capsys):
    """``decompose`` prints the same error, and ``hyp-check`` the same
    lines, as with the lowest-first scan, which has no pre-check."""
    for k, h in enumerate(more_hyperedges_than_leaves()):
        path = tmp_path / f"{k}.hyp"
        path.write_text(write_hypergraph(h))
        got = [cli_lines(path, c, capsys) for c in ("decompose", "hyp-check")]
        with monkeypatch.context() as m:
            m.setattr(hypergraph, "gluing_preorder", gluing_preorder_lowest_first)
            m.setattr(cli, "gluing_preorder", gluing_preorder_lowest_first)
            want = [cli_lines(path, c, capsys) for c in ("decompose", "hyp-check")]
        assert got == want, h
        assert got[0][0] == 2 and got[0][2].startswith("error: not 1-Sperner")
        assert got[1][0] == 1 and "1-sperner: false\n" in got[1][1]

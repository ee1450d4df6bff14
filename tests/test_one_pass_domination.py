"""The H-free split pipeline answers all three domination variants from one
minimum dominating set per component: one gluing-path cover of the
clique-side hypergraph per component with two or more vertices, whatever
the number of variants."""

import json
import random

import pytest

import sperner.cli as cli
import sperner.domination as domination
from sperner.bitset import popcount
from sperner.domination import (VARIANTS, brute_force, is_dominating,
                                solve_h_free_split, solve_h_free_split_all)
from sperner.generators import random_split_h_free, split_graph_structures
from sperner.graphs import Graph, find_induced, pattern
from sperner.textio import write_graph


def _nontrivial_components(g):
    return sum(1 for c in g.components() if popcount(c) > 1)


@pytest.mark.parametrize("g", [
    Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]),
    # a star plus two isolated vertices: total and connected are infeasible
    Graph(6, [(1, 2), (1, 3), (1, 4)]),
], ids=["connected", "disconnected"])
def test_dominate_runs_the_dp_once_per_component(tmp_path, capsys, monkeypatch, g):
    """The ``dp`` method (the in-class pipeline) covers once per component."""
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    calls = _count_calls(monkeypatch, domination, "_min_cover")
    assert cli.main(["dominate", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(VARIANTS)
    assert len(calls) == _nontrivial_components(g) == 1


def test_dominate_dp_calls_on_generated_graphs(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, domination, "_min_cover")
    rng = random.Random(41)
    seen_disconnected = False
    for i in range(20):
        g = random_split_h_free(rng.randint(2, 14), rng).g
        seen_disconnected |= not g.is_connected()
        path = tmp_path / f"g{i}.graph"
        path.write_text(write_graph(g))
        before = len(calls)
        assert cli.main(["dominate", "--method", "auto", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) - before == _nontrivial_components(g)
    assert seen_disconnected


def test_single_variant_is_an_entry_of_all_exhaustive_n7():
    h_pat = pattern("H")
    checked = 0
    for n in range(8):
        for ls in split_graph_structures(n):
            g = ls.g
            if find_induced(g, h_pat) is not None:
                continue
            checked += 1
            every = solve_h_free_split_all(g)
            assert tuple(r.variant for r in every) == VARIANTS
            for i, variant in enumerate(VARIANTS):
                assert solve_h_free_split(g, variant) == every[i], (g, variant)
                want = brute_force(g, variant)
                assert every[i].infeasible == want.infeasible, (g, variant)
                if not want.infeasible:
                    assert every[i].size == want.size, (g, variant)
                    assert is_dominating(g, every[i].witness, variant)
    assert checked > 1000


def test_unknown_variant_is_rejected():
    with pytest.raises(domination.DominationError, match="unknown variant"):
        solve_h_free_split(Graph(2, [(0, 1)]), "independent")


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_auto_decides_the_class_once(tmp_path, capsys, monkeypatch):
    """``dominate`` (auto) runs the split partition and the H pair test
    once each, in the pipeline; each component takes its sides from g's
    partition."""
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    splits = _count_calls(monkeypatch, domination, "find_split_partition")
    h_tests = _count_calls(monkeypatch, domination, "pattern_witness")
    assert cli.main(["--format", "records", "dominate", str(path)]) == 0
    methods = {json.loads(line)["method"] for line in capsys.readouterr().out.splitlines()}
    assert methods == {"dp"}
    assert (len(splits), len(h_tests)) == (1, 1)


@pytest.mark.parametrize("g, message", [
    (pattern("C4"), "graph is not split"),
    (pattern("H"), "graph contains an induced H: "),
], ids=["not-split", "induced-H"])
def test_out_of_class_goes_to_brute_force_under_auto(tmp_path, capsys, g, message):
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    assert cli.main(["--format", "records", "dominate", str(path)]) == 0
    out = capsys.readouterr().out
    assert {json.loads(line)["method"] for line in out.splitlines()} == {"brute"}
    assert cli.main(["dominate", "--method", "dp", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_auto_keeps_a_failed_verification_at_exit_2(tmp_path, capsys, monkeypatch):
    """Only out-of-class input goes to brute force; a witness that fails
    its check is an error."""
    monkeypatch.setattr(domination, "_component_kside", lambda g, comp, imask: frozenset())
    path = tmp_path / "g.graph"
    path.write_text(write_graph(Graph(2, [(0, 1)])))
    assert cli.main(["dominate", str(path)]) == 2
    assert capsys.readouterr().err == "error: dominating witness fails verification\n"

"""In-class ``dominate`` and ``cwd`` runs decide H- and co-H-freeness with
the pair tests alone, and ``ThresholdWitness.verify`` builds no 2^n table
above its exhaustive cap."""

import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

import sperner.cli as cli
import sperner.graphs as graphs
from sperner.domination import brute_force, is_dominating
from sperner.generators import (random_one_sperner, random_split_h_free,
                                random_split_hbar_free)
from sperner.graphs import edge_clique_split_of, pattern, vertex_clique_split_of
from sperner.hypergraph import Hypergraph
from sperner.textio import write_graph
from sperner.threshold import ThresholdWitness, threshold_witness


class PatternSearchCalled(Exception):
    pass


def _rebind_find_induced(monkeypatch, replacement):
    """Rebind ``find_induced`` on every ``sperner`` module that binds it."""
    orig = graphs.find_induced
    holders = [mod for name, mod in list(sys.modules.items())
               if (name == "sperner" or name.startswith("sperner."))
               and getattr(mod, "find_induced", None) is orig]
    assert graphs in holders and len(holders) > 1
    for mod in holders:
        monkeypatch.setattr(mod, "find_induced", replacement)


@pytest.fixture
def no_pattern_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise PatternSearchCalled("find_induced ran on an in-class input")
    _rebind_find_induced(monkeypatch, refuse)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(write_graph(g))
    return str(path)


def _big_h():
    h = random_one_sperner(80, random.Random(3))
    assert edge_clique_split_of(h).g.n == 113
    return h


def _check_dominate(capsys, path, g, method, exact):
    code, out, err = run_cli(capsys, "--format", "records", "dominate", path,
                             "--method", method)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["variant"] for r in records] == ["dominating", "total", "connected"]
    for r in records:
        assert r["method"] == "dp"
        want = brute_force(g, r["variant"]) if exact else None
        if r.get("infeasible"):
            assert want is None or want.infeasible
            continue
        assert is_dominating(g, r["witness"], r["variant"])
        assert want is None or r["size"] == want.size


@pytest.mark.parametrize("method", ["auto", "dp"])
def test_dominate_in_class_runs_without_pattern_search(tmp_path, capsys,
                                                        no_pattern_search, method):
    rng = random.Random(5)
    for i in range(6):
        g = random_split_h_free(12, rng).g
        _check_dominate(capsys, _write(tmp_path, f"s{i}.graph", g), g, method,
                        exact=True)
    g = edge_clique_split_of(_big_h()).g
    _check_dominate(capsys, _write(tmp_path, "big.graph", g), g, method, exact=False)


def test_cwd_split_classes_run_without_pattern_search(tmp_path, capsys,
                                                      no_pattern_search):
    rng = random.Random(6)
    h = _big_h()
    cases = [("split-H", random_split_h_free(12, rng).g),
             ("split-Hbar", random_split_hbar_free(12, rng).g),
             ("split-H", edge_clique_split_of(h).g),
             ("split-Hbar", vertex_clique_split_of(h).g)]
    for i, (kind, g) in enumerate(cases):
        path = _write(tmp_path, f"c{i}.graph", g)
        code, out, err = run_cli(capsys, "cwd", path, "--kind", kind)
        # cwd evaluates the expression and compares it with the input itself
        assert (code, err) == (0, ""), (kind, g.n)
        assert out.startswith("(")


@pytest.mark.parametrize("argv, name", [
    (("dominate", "--method", "dp"), "H"),
    (("decompose", "--kind", "split-H"), "H"),
    (("cwd", "--kind", "split-Hbar"), "co-H"),
])
def test_pair_test_and_search_disagreeing_is_a_typed_error(tmp_path, capsys,
                                                           monkeypatch, argv, name):
    _rebind_find_induced(monkeypatch, lambda g, pat, cap=7: None)
    path = _write(tmp_path, "p.graph", pattern(name))
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: the pair test finds an induced {name} "
                   "that the pattern search does not\n")


def test_verify_above_the_exhaustive_cap_builds_no_table():
    n = 24
    h = Hypergraph(range(n), [{i, j} for i in range(n) for j in range(i + 1, n)])
    ones = tuple(Fraction(1) for _ in range(n))
    tracemalloc.start()
    try:
        results = [ThresholdWitness(ones, Fraction(t)).verify(h) for t in (2, 3, 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # weight 2 on exactly the dependent sets; t = 3 misses the edges, t = 1
    # catches the single vertices, which are the maximal independent sets
    assert results == [True, False, False]
    # a table of 2^24 subset sums holds 8-byte pointers: 128 MiB
    assert peak < (1 << 24) // 16


def test_verify_family_check_agrees_with_the_exhaustive_check():
    # the family check alone (exhaustive_limit=0) is complete by monotonicity
    rng = random.Random(8)
    for _ in range(30):
        h = random_one_sperner(rng.randint(1, 9), rng)
        tw = threshold_witness(h)
        for t in (tw.threshold, tw.threshold + 1, tw.threshold / 2):
            wit = ThresholdWitness(tw.weights, t)
            assert wit.verify(h, exhaustive_limit=0) == wit.verify(h), (h, t)

"""In-class ``dominate`` and ``cwd`` runs decide H- and co-H-freeness with
the pair tests alone, in-class ``dominate`` builds no 5-expression and runs
no DP, the bigraph classes and their generator decide
2P3-freeness the same way, in-class ``decompose`` runs certify 1-Spernerness
from the gluing tree without the pairwise scan, ``hyp-check`` refutes
irregular inputs without the LP, 1-Sperner inputs get their threshold
certificate without the LP, and ``ThresholdWitness.verify`` builds no
2^n table above its exhaustive cap."""

import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

import sperner.cli as cli
import sperner.cliquewidth as cliquewidth
import sperner.domination as domination
import sperner.graphs as graphs
import sperner.hypergraph as hypergraph
import sperner.threshold as threshold
from sperner.bitset import minimal_masks, popcount
from sperner.cliquewidth import build_split_h_free
from sperner.domination import brute_force, dp_dominating_set, is_dominating
from sperner.generators import (random_bigraph_2p3_free, random_cobigraph,
                                random_one_sperner, random_split_h_free,
                                random_split_hbar_free)
from sperner.graphs import (Graph, edge_clique_split_of, pattern,
                            vertex_clique_split_of)
from sperner.hypergraph import Hypergraph, is_one_sperner
from sperner.textio import threshold_witness_to_text, write_graph, write_hypergraph
from sperner.threshold import ThresholdWitness, threshold_witness

from oracles import brute_is_regular, separates_mask_by_mask
from test_deep_expressions import gluing_chain
from test_dp_oracle import clique_sperner_residue
from test_hyp_check_certificate import printed_asummability_witness
from test_regularity_pretest import sperner_families


class PatternSearchCalled(Exception):
    pass


def _rebind(monkeypatch, module, name, replacement) -> list:
    """Rebind ``module.name`` on every ``sperner`` module that binds it;
    returns those modules."""
    orig = getattr(module, name)
    holders = [mod for mod_name, mod in list(sys.modules.items())
               if (mod_name == "sperner" or mod_name.startswith("sperner."))
               and getattr(mod, name, None) is orig]
    for mod in holders:
        monkeypatch.setattr(mod, name, replacement)
    return holders


def _rebind_find_induced(monkeypatch, replacement):
    holders = _rebind(monkeypatch, graphs, "find_induced", replacement)
    assert graphs in holders and len(holders) > 1


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
    return records


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


class ExpressionPathCalled(Exception):
    pass


def _dp_route_sizes(g):
    """The three variants' sizes (None when infeasible) from the DP on the
    5-expression of each component's clique-Sperner residue."""
    comps = g.components()
    gammas = [1 if popcount(c) == 1 else
              dp_dominating_set(build_split_h_free(clique_sperner_residue(g, c))).size
              for c in comps]
    total = None if 1 in map(popcount, comps) else sum(max(x, 2) for x in gammas)
    return [sum(gammas), total, sum(gammas) if len(comps) == 1 else None]


def test_dominate_in_class_runs_without_expression_or_dp(tmp_path, capsys, monkeypatch):
    """In-class ``dominate`` covers the clique-side hypergraph along one
    gluing path: no 5-expression is built or evaluated and no DP runs, on
    the benchmark's 19-vertex split graphs and on the split graph of the
    1,000-step gluing chain, whose sizes equal the DP route's."""
    rng = random.Random(15)
    small = []
    while len(small) < 12:
        h = random_one_sperner(12, rng)
        if h.m == 7:
            small.append(edge_clique_split_of(h).g)
    assert {g.n for g in small} == {19}
    assert {g.is_connected() for g in small} == {True, False}
    chain = edge_clique_split_of(gluing_chain(1000, 11)).g
    want = _dp_route_sizes(chain)

    for module, name in ((cliquewidth, "build_from_tree"), (cliquewidth, "evaluate"),
                         (domination, "dp_dominating_set")):
        def refuse(*args, name=name, **kwargs):
            raise ExpressionPathCalled(f"{name} ran on an in-class dominate")
        assert _rebind(monkeypatch, module, name, refuse)
    for i, g in enumerate(small):
        _check_dominate(capsys, _write(tmp_path, f"s{i}.graph", g), g, "auto",
                        exact=True)
    records = _check_dominate(capsys, _write(tmp_path, "chain.graph", chain), chain,
                              "auto", exact=False)
    assert [r.get("size") for r in records] == want


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


def test_bigraph_classes_run_without_pattern_search(tmp_path, capsys,
                                                    no_pattern_search):
    rng = random.Random(7)
    cases = [(kind, make(20, rng)) for _ in range(8) for kind, make in (
        ("bigraph", lambda size, rng: random_bigraph_2p3_free(size, rng).g),
        ("cobigraph", random_cobigraph))]
    for i, (kind, g) in enumerate(cases):
        path = _write(tmp_path, f"b{i}.graph", g)
        for command in ("cwd", "decompose"):
            code, out, err = run_cli(capsys, command, path, "--kind", kind)
            assert (code, err) == (0, ""), (command, kind, g.n)


# 2P3 itself has two three-vertex components, which the bipartition search
# rejects before the pair test runs; P7 holds an induced 2P3 and is
# right-Sperner with its odd vertices on the B side
P7 = Graph(7, [(i, i + 1) for i in range(6)])
PAIR_TEST_INPUTS = {"bigraph": P7, "cobigraph": P7.complement()}


@pytest.mark.parametrize("argv, name", [
    (("dominate", "--method", "dp"), "H"),
    (("decompose", "--kind", "split-H"), "H"),
    (("cwd", "--kind", "split-Hbar"), "co-H"),
    (("cwd", "--kind", "bigraph"), "2P3"),
    (("decompose", "--kind", "cobigraph"), "2P3"),
])
def test_pair_test_and_search_disagreeing_is_a_typed_error(tmp_path, capsys,
                                                           monkeypatch, argv, name):
    _rebind_find_induced(monkeypatch, lambda g, pat: None)
    path = _write(tmp_path, "p.graph", PAIR_TEST_INPUTS.get(argv[-1], pattern(name)))
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: the pair test finds an induced {name} "
                   "that the pattern search does not\n")


class PairScanCalled(Exception):
    pass


def test_decompose_in_class_runs_without_the_pair_scan(tmp_path, capsys, monkeypatch):
    hs = [random_one_sperner(n, random.Random(n)) for n in (0, 1, 9, 40, 150)]
    hs.append(Hypergraph(range(3), [{0, 1}, {1, 2}]))
    paths = []
    for i, h in enumerate(hs):
        path = tmp_path / f"h{i}.hyp"
        path.write_text(write_hypergraph(h))
        paths.append(str(path))
    trees = [hypergraph.decompose(h) for h in hs]
    outputs = [run_cli(capsys, "decompose", p) for p in paths]
    assert all(code == 0 for code, _, _ in outputs)

    def refuse(*args, **kwargs):
        raise PairScanCalled("one_sperner_violation ran on a 1-Sperner input")
    monkeypatch.setattr(hypergraph, "one_sperner_violation", refuse)
    assert [hypergraph.decompose(h) for h in hs] == trees
    assert [run_cli(capsys, "decompose", p) for p in paths] == outputs


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


def test_verify_family_check_agrees_with_the_exhaustive_check(monkeypatch):
    # the family check alone (EXHAUSTIVE_LIMIT = 0) is complete by monotonicity
    rng = random.Random(8)
    cases = []
    for _ in range(30):
        h = random_one_sperner(rng.randint(1, 9), rng)
        tw = threshold_witness(h)
        for t in (tw.threshold, tw.threshold + 1, tw.threshold / 2):
            wit = ThresholdWitness(tw.weights, t)
            cases.append((h, wit, wit.verify(h)))
    monkeypatch.setattr(threshold, "EXHAUSTIVE_LIMIT", 0)
    for h, wit, both_checks in cases:
        assert wit.verify(h) == both_checks, (h, wit.threshold)


def test_exhaustive_check_matches_the_per_mask_rule():
    rng = random.Random(12)
    separating = 0
    for n in range(1, 13):
        for k in range(6):
            if k % 2:
                # a threshold input and its own scaled certificate
                h = random_one_sperner(n, rng)
                tw = threshold_witness(h)
                wint, tint = threshold._integer_scaled(tw.weights, tw.threshold)
            else:
                masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
                h = Hypergraph.from_masks(range(n), masks)
                wint = [rng.randint(0, 5) for _ in range(n)]
                tint = rng.randint(0, 3 * n)
            for t in (tint, tint + 1, max(tint - 1, 0)):
                expected = separates_mask_by_mask(h, wint, t)
                assert threshold._separates_all_subsets(h, wint, t) == expected, (h, wint, t)
                separating += expected
    assert separating >= 36


class LPCalled(Exception):
    pass


def _planted_pairs(n, m, rng):
    """{a,b} and {c,d} plus hyperedges of three or more vertices that are
    incomparable with every hyperedge so far, so {a,c} and {b,d} stay
    independent (the benchmark's planted non-threshold family)."""
    a, b, c, d = rng.sample(range(n), 4)
    masks = [1 << a | 1 << b, 1 << c | 1 << d]
    for _ in range(50 * m):
        if len(masks) >= m:
            break
        e = sum(1 << v for v in rng.sample(range(n), rng.randint(3, n // 2)))
        if not any(f & e in (e, f) for f in masks):
            masks.append(e)
    return Hypergraph.from_masks(range(n), masks)


def test_hyp_check_refutes_irregular_inputs_without_the_lp(tmp_path, capsys, monkeypatch):
    rng = random.Random(14)
    hs = [_planted_pairs(14, 21, rng) for _ in range(4)]
    hs += [Hypergraph(range(n), [{i, i + 1} for i in range(n - 1)]) for n in range(5, 21)]
    paths = []
    for i, h in enumerate(hs):
        path = tmp_path / f"h{i}.hyp"
        path.write_text(write_hypergraph(h))
        paths.append(str(path))
    expected = [run_cli(capsys, "hyp-check", p) for p in paths]
    assert all(code == 1 and "threshold: false" in out for code, out, _ in expected)

    def refuse(*args, **kwargs):
        raise LPCalled("the LP ran on an irregular input")
    monkeypatch.setattr(threshold, "solve_nonnegative_feasibility", refuse)
    monkeypatch.setattr(threshold, "maximal_independent_masks", refuse)
    assert [run_cli(capsys, "hyp-check", p) for p in paths] == expected
    # P_21 is refuted without the LP too, and its incomparable pair answers
    # 2-asummability above the search's 20-vertex cap
    p21 = Hypergraph(range(21), [{i, i + 1} for i in range(20)])
    path = tmp_path / "p21.hyp"
    path.write_text(write_hypergraph(p21))
    code, out, err = run_cli(capsys, "hyp-check", str(path))
    assert (code, err) == (1, "") and "threshold: false\n" in out
    assert printed_asummability_witness(out).verify(p21)


def test_threshold_of_one_sperner_inputs_runs_without_the_lp(tmp_path, capsys, monkeypatch):
    hs = [random_one_sperner(n, random.Random(n)) for n in (1, 4, 9, 12, 16)]
    paths = []
    for i, h in enumerate(hs):
        path = tmp_path / f"h{i}.hyp"
        path.write_text(write_hypergraph(h))
        paths.append(str(path))
    expected = [run_cli(capsys, "hyp-check", p) for p in paths]
    # exit 1 where the input is not conformal
    assert all(code in (0, 1) and "threshold: true\n" in out and "2-asummable: true" in out
               for code, out, _ in expected)
    # the certificate printed is the one the LP finds
    assert all(h.edge_masks and 0 not in h.edge_masks for h in hs[1:])
    for h, (_, out, _) in zip(hs[1:], expected[1:]):
        lp = threshold._lp_threshold_witness(h, minimal_masks(h.edge_masks))
        text = threshold_witness_to_text(h, lp)
        assert "".join(f"  {line}\n" for line in text.splitlines()) in out

    def refuse(*args, **kwargs):
        raise LPCalled("the LP ran on a 1-Sperner input")
    monkeypatch.setattr(threshold, "solve_nonnegative_feasibility", refuse)
    assert [run_cli(capsys, "hyp-check", p) for p in paths] == expected
    h = random_one_sperner(120, random.Random(3))
    tw = threshold_witness(h)
    assert tw is not None and tw.verify(h)


def test_regular_inputs_that_are_not_one_sperner_reach_the_lp_once(monkeypatch):
    # the first family of the sweep over at most five vertices that is
    # regular and not 1-Sperner ({0, 3} and {1, 2} differ by two on each side)
    h = Hypergraph(range(4), [{1, 2}, {0, 3}, {1, 3}, {2, 3}])
    assert h == next(f for f in sperner_families(5)
                     if not is_one_sperner(f) and brute_is_regular(f))
    solve = threshold.solve_nonnegative_feasibility
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(threshold, "solve_nonnegative_feasibility", counted)
    tw = threshold_witness(h)
    assert tw is not None and tw.verify(h)
    assert len(calls) == 1

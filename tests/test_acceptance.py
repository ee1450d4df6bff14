"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs a deterministic sweep at its stated caps; a failing
sweep prints its disagreement list. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.

Instance-set conventions used by the sweeps:

* "all labeled graphs on n <= 6" is literal; the 1000 random graphs for
  n in {7, 8} are 500 per size from the recorded seed.
* "exhaustively on in-class graphs with n <= 8" iterates the incidence
  constructions over all 1-Sperner hypergraphs with |V| + |E| <= 8, which
  realizes every in-class graph up to isomorphism (every in-class graph
  is the incidence graph of its derived hypergraph).
* "all split graphs n <= 9" iterates clique-side neighborhood multiset
  structures, which cover every split graph up to isomorphism.
* "all Sperner hypergraphs on <= 6 vertices" is checked through an exact
  word-parallel transversal over the 6-vertex universe (families over
  fewer vertices recur there); the library transversal is pinned to it
  exhaustively for n <= 5 and on a large seeded sample at n = 6.
"""

from sperner.sweeps import (DEFAULT_SEED, EQUIVALENCE_RANDOM_NS,
                            cliquewidth_roundtrip_sweep,
                            decomposition_roundtrip_sweep,
                            domination_sweep, domishold_equivalence_sweep,
                            fixtures_sweep, graph_decomposition_sweep,
                            incidence_translation_sweep,
                            threshold_equivalence_sweep,
                            transversal_involution_sweep)


def _finish(criterion: str, rep, caps: dict):
    status = "PASS" if rep.passed else "FAIL"
    print(f"\n[{criterion}] {status}: ", end="")
    for line in rep.lines():
        print(line)
    # the criterion's stated caps, as the sweep's constants set them
    assert rep.caps == caps
    assert rep.passed, "\n".join(rep.lines())


def test_criterion_1_threshold_equivalences():
    rep = threshold_equivalence_sweep(max_n=6, seed=DEFAULT_SEED)
    assert EQUIVALENCE_RANDOM_NS == (7, 8)
    _finish("criterion 1: threshold equivalence suite", rep,
            {"max_n": 6, "random_per_n": 500})


def test_criterion_2_domishold_equivalences():
    rep = domishold_equivalence_sweep(max_n=6, seed=DEFAULT_SEED)
    assert EQUIVALENCE_RANDOM_NS == (7, 8)
    _finish("criterion 2: domishold equivalence suite", rep,
            {"max_n": 6, "random_per_n": 500})


def test_criterion_3_decomposition_roundtrip():
    rep = decomposition_roundtrip_sweep(max_n=14, seed=DEFAULT_SEED)
    _finish("criterion 3a: gluing decomposition round trip", rep,
            {"samples": 1000, "max_n": 14, "exhaustive_n": 4})


def test_criterion_3_transversal_involution():
    rep = transversal_involution_sweep(seed=DEFAULT_SEED)
    _finish("criterion 3b: transversal involution", rep,
            {"max_n": 6, "library_exhaustive_n": 5, "library_sample": 100_000})


def test_criterion_4_incidence_translation():
    rep = incidence_translation_sweep()
    _finish("criterion 4: incidence translation", rep, {"max_n": 5, "max_m": 5})


def test_criterion_5_graph_decomposition():
    rep = graph_decomposition_sweep(max_n=20, seed=DEFAULT_SEED)
    _finish("criterion 5: graph decomposition validity", rep,
            {"per_class": 500, "max_n": 20, "exhaustive_total": 8})


def test_criterion_6_cliquewidth_builders():
    rep = cliquewidth_roundtrip_sweep(max_n=20, seed=DEFAULT_SEED)
    _finish("criterion 6: clique-width builders", rep,
            {"per_class": 500, "max_n": 20, "exhaustive_total": 8})


def test_criterion_7_domination():
    rep = domination_sweep(seed=DEFAULT_SEED)
    _finish("criterion 7: domination solvers", rep,
            {"per_class": 500, "gen_max_n": 12, "dp_max_n": 14,
             "exhaustive_n": 8, "reduction_n": 9})


def test_criterion_8_fixtures():
    rep = fixtures_sweep()
    _finish("criterion 8: counterexample fixtures", rep, {})

"""The gluing lemma as the 1-Sperner certificate of ``decompose`` and as
the rejection test of ``random_one_sperner``.

glue(H1, H2, z) is 1-Sperner iff H1 and H2 are and not (V1 in E1 and the
empty set in E2). ``decompose`` checks it at every node instead of running
the pairwise scan first, and runs the scan only to name the witness; the
generator tests it on the parts before gluing.
"""

import random

import pytest

from oracles import random_one_sperner_by_check
from sperner.generators import random_one_sperner
from sperner.hypergraph import (Hypergraph, NotOneSpernerError, decompose,
                                glue, one_sperner_violation, recompose)
from sperner.textio import write_hypergraph
from test_invariants import all_one_sperner


def _decompose_witness(h):
    """The witness pair ``decompose`` raises, or None if it decomposes h
    into a tree that recomposes to h."""
    try:
        tree = decompose(h)
    except NotOneSpernerError as exc:
        return exc.witness
    assert recompose(tree) == h
    return None


def test_decompose_names_the_pair_scan_witness_on_every_small_family():
    """All 2 + 4 + 16 + 256 + 65,536 hyperedge families on at most four
    vertices."""
    count = failing = 0
    for n in range(5):
        for picks in range(1 << (1 << n)):
            masks = [m for m in range(1 << n) if picks >> m & 1]
            h = Hypergraph.from_masks(range(n), masks)
            want = one_sperner_violation(h)
            assert _decompose_witness(h) == want, h
            count += 1
            failing += want is not None
    assert count == 65814
    assert count - failing == 162


def test_decompose_names_the_witness_of_every_failing_gluing():
    """The 25 gluings of the invariants pool that are not 1-Sperner
    although both of their parts are: V1 in E1 and the empty set in E2."""
    pool = list(all_one_sperner(4))
    lefts = [h for h in pool if frozenset(h.vertices) in h.edges]
    rights = [h for h in pool if frozenset() in h.edges]
    assert len(lefts) * len(rights) == 25
    for h1 in lefts:
        for h2 in rights:
            off = h1.n
            h2r = Hypergraph([v + off for v in h2.vertices],
                             [{v + off for v in e} for e in h2.edges])
            g = glue(h1, h2r, h1.n + h2.n)
            want = one_sperner_violation(g)
            assert want is not None
            assert _decompose_witness(g) == want, (h1, h2)


@pytest.mark.parametrize("n, seeds", [(9, range(8)), (12, range(8)), (150, range(3))])
def test_generator_matches_the_glue_and_check_oracle(n, seeds):
    for seed in seeds:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = random_one_sperner(n, rng)
            want = random_one_sperner_by_check(n, oracle_rng)
            assert write_hypergraph(got) == write_hypergraph(want), (n, seed)
        # both consumed the same draws
        assert rng.random() == oracle_rng.random()

"""Hypergraph predicates, gluing, decomposition, transversal, conformality."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sperner.bitset import min_difference_pair
from sperner.hypergraph import (Hypergraph, HypergraphError, HLeaf, HNode,
                                NotOneSpernerError, decompose, dual_masks, glue,
                                is_conformal, is_dually_sperner, is_k_sperner,
                                is_one_sperner, is_sperner, is_z_decomposable,
                                maximal_independent_masks, one_sperner_violation,
                                recompose, split_at, transversal)

from oracles import brute_dual_masks, brute_is_conformal


def H(vertices, edges):
    return Hypergraph(vertices, edges)


K4_EDGES = H(range(4), [{i, j} for i in range(4) for j in range(i + 1, 4)])
K3_EDGES = H(range(3), [{0, 1}, {0, 2}, {1, 2}])
P4_EDGES = H(range(4), [{0, 1}, {1, 2}, {2, 3}])
TWO_K3_CLIQUES = H(range(6), [{0, 1, 2}, {3, 4, 5}])


class TestConstruction:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(HypergraphError):
            H(range(3), [{0, 1}, {1, 0}])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(HypergraphError):
            H(range(2), [{5}])

    def test_empty_hyperedge_is_legal(self):
        h = H(range(2), [set(), {0}])
        assert frozenset() in h.edges

    def test_zero_vertex_hypergraphs(self):
        assert H([], []).m == 0
        assert H([], [set()]).m == 1

    def test_incidence_matrix(self):
        h = H([3, 5, 7], [{3, 7}, {5}])
        # canonical col order 3,5,7; rows sorted by mask: {5} = 010, {3,7} = 101
        assert h.incidence_matrix() == ((0, 1, 0), (1, 0, 1))


class TestSpernerPredicates:
    def test_sperner_examples(self):
        assert is_sperner(H(range(4), [{0, 1}, {2, 3}]))
        assert not is_sperner(H(range(2), [set(), {0}]))
        assert not is_sperner(H(range(3), [{0, 1}, {0, 1, 2}]))

    def test_dually_sperner_examples(self):
        assert is_dually_sperner(H(range(2), [set(), {0}]))
        assert not is_dually_sperner(K4_EDGES)
        assert is_dually_sperner(H(range(3), [{0, 1, 2}]))

    def test_k_sperner_examples(self):
        assert not is_k_sperner(TWO_K3_CLIQUES, 2)
        assert is_k_sperner(TWO_K3_CLIQUES, 3)
        for k in (1, 2, 5):
            assert not is_k_sperner(H(range(3), [{0, 1}, {0, 1, 2}]), k)

    def test_one_sperner_examples(self):
        assert not is_one_sperner(K4_EDGES)
        assert is_one_sperner(H(range(3), [{0, 1}, {1, 2}]))
        assert not is_one_sperner(H(range(4), [{0, 1}, {2, 3}]))

    def test_violation_witness(self):
        w = one_sperner_violation(H(range(4), [{0, 1}, {2, 3}]))
        assert w == (frozenset({0, 1}), frozenset({2, 3}))
        assert one_sperner_violation(K3_EDGES) is None


@pytest.mark.parametrize("lo, hi", [(1, 1), (0, 1), (1, 2), (1, 3)])
def test_min_difference_pair_is_the_first_pair_outside_the_range(lo, hi):
    """The short-circuit scan agrees with the definition: the first pair
    i < j whose min(|a\\b|, |b\\a|) lies outside [lo, hi]."""
    rng = random.Random(lo * 10 + hi)
    found = 0
    for _ in range(5000):
        masks = [rng.randrange(1 << 6) for _ in range(rng.randint(0, 7))]
        want = next(((i, j) for i, j in itertools.combinations(range(len(masks)), 2)
                     if not lo <= min((masks[i] & ~masks[j]).bit_count(),
                                      (masks[j] & ~masks[i]).bit_count()) <= hi), None)
        assert min_difference_pair(masks, lo, hi) == want, masks
        found += want is not None
    assert 0 < found < 5000


def small_hypergraphs(max_n=4, max_m=4):
    def build(draw_data):
        n, picks = draw_data
        masks = sorted(set(picks))
        return Hypergraph.from_masks(range(n), masks)
    return st.tuples(
        st.integers(min_value=0, max_value=max_n),
        st.lists(st.integers(min_value=0, max_value=(1 << max_n) - 1), max_size=max_m),
    ).map(lambda t: (t[0], [m & ((1 << t[0]) - 1) for m in t[1]])).map(build)


@given(small_hypergraphs())
def test_one_sperner_is_sperner_and_dually(h):
    assert is_one_sperner(h) == (is_sperner(h) and is_dually_sperner(h))
    assert is_one_sperner(h) == is_k_sperner(h, 1)


class TestGlue:
    def test_simple(self):
        h = glue(H([1], [{1}]), H([2], [{2}]), 0)
        assert h == H([0, 1, 2], [{0, 1}, {1, 2}])

    def test_empty_constituents(self):
        assert glue(H([], []), H([], []), 7) == H([7], [])

    def test_empty_edge_cases(self):
        h = glue(H([1], [set(), {1}]), H([], [set()]), 0)
        assert h == H([0, 1], [{0}, {0, 1}, {1}])

    def test_rejects_overlap(self):
        with pytest.raises(HypergraphError):
            glue(H([1], []), H([1], []), 0)
        with pytest.raises(HypergraphError):
            glue(H([1], []), H([2], []), 2)

    def test_block_incidence_form(self):
        h1 = H([1, 2], [{1}, {1, 2}])
        h2 = H([3, 4], [{3, 4}])
        g = glue(h1, h2, 0)
        # order rows: z-containing first (by mask), then the rest; cols 0,1,2,3,4
        zb = 1 << g.position(0)
        rows_z = [i for i, m in enumerate(g.edge_masks) if m & zb]
        rows_o = [i for i, m in enumerate(g.edge_masks) if not m & zb]
        rows = g.incidence_matrix()
        mat = [rows[r] for r in rows_z + rows_o]
        m1, n1 = h1.m, h1.n
        for r in range(m1):
            assert mat[r][0] == 1  # all-ones column at z
            assert all(x == 0 for x in mat[r][1 + n1:])  # zero block over V2
        for r in range(m1, g.m):
            assert mat[r][0] == 0
            assert all(x == 1 for x in mat[r][1:1 + n1])  # all-ones block over V1


class TestSplitAt:
    def test_z_decomposable(self):
        h = H([0, 1, 2], [{0, 1}, {1, 2}])
        assert is_z_decomposable(h, 0)
        assert not is_z_decomposable(H([0, 1, 2], [{0, 1}, {2}]), 0)
        # no hyperedge contains z: vacuously decomposable
        assert is_z_decomposable(H([0, 1], [{1}]), 0)

    def test_unknown_vertex(self):
        with pytest.raises(HypergraphError):
            is_z_decomposable(H([0], []), 9)

    def test_split_inverts_glue(self):
        h = H([0, 1, 2], [{0, 1}, {1, 2}])
        h1, h2 = split_at(h, 0)
        assert h1 == H([1], [{1}])
        assert h2 == H([2], [{2}])

    def test_split_on_isolated_z(self):
        h1, h2 = split_at(H([0], []), 0)
        assert h1 == H([], []) and h2 == H([], [])

    def test_split_singleton_edge(self):
        h = H([0, 1], [{0}])
        h1, h2 = split_at(h, 0)
        assert h1 == H([], [set()])
        assert glue(h1, h2, 0) == h

    def test_split_requires_decomposability(self):
        with pytest.raises(HypergraphError):
            split_at(H([0, 1, 2], [{0, 1}, {2}]), 0)


class TestDecompose:
    def test_small(self):
        h = H([0, 1, 2], [{0, 1}, {1, 2}])
        t = decompose(h)
        assert isinstance(t, HNode) and t.z == 0
        assert recompose(t) == h

    def test_zero_vertices(self):
        t = decompose(H([], [set()]))
        assert isinstance(t, HLeaf)
        assert recompose(t) == H([], [set()])

    def test_rejects_non_one_sperner(self):
        with pytest.raises(NotOneSpernerError) as ei:
            decompose(K4_EDGES)
        e, f = ei.value.witness
        assert min(len(e - f), len(f - e)) != 1

    def test_no_edges(self):
        h = H(range(3), [])
        assert recompose(decompose(h)) == h


class TestTransversal:
    def test_examples(self):
        assert transversal(H([0, 1], [{0, 1}])) == H([0, 1], [{0}, {1}])
        assert transversal(K3_EDGES) == K3_EDGES
        assert transversal(H(range(2), [])) == H(range(2), [set()])

    def test_empty_edge_convention(self):
        assert transversal(H(range(2), [set()])) == H(range(2), [])

    def test_against_brute_force(self):
        for n in range(0, 5):
            for m in range(0, 4):
                for masks in itertools.combinations(range(1 << n), m):
                    assert dual_masks(masks, n) == brute_dual_masks(masks, n)

    def test_involution_small_sperner(self):
        for n in range(0, 5):
            for m in range(0, 4):
                for masks in itertools.combinations(range(1 << n), m):
                    h = Hypergraph.from_masks(range(n), masks)
                    if is_sperner(h):
                        assert transversal(transversal(h)) == h

    def test_maximal_independent_masks(self):
        # C4 edges: maximal independent sets are the two diagonals
        c4 = H(range(4), [{0, 1}, {1, 2}, {2, 3}, {0, 3}])
        assert set(maximal_independent_masks(c4)) == {0b0101, 0b1010}


class TestConformal:
    def test_known_separating_examples(self):
        assert not is_conformal(K3_EDGES)
        assert is_conformal(H(range(3), [{0, 1, 2}]))

    def test_uncovered_vertex_not_conformal(self):
        assert not is_conformal(H(range(2), [{0}]))

    def test_against_brute_force(self):
        for n in range(0, 4):
            for m in range(0, 4):
                for masks in itertools.combinations(range(1 << n), m):
                    h = Hypergraph.from_masks(range(n), masks)
                    assert is_conformal(h) == brute_is_conformal(h), h


def random_glue_instances():
    """Deterministic list of glued 1-Sperner instances for property tests."""
    import random
    from sperner.generators import random_one_sperner
    rng = random.Random(20240901)
    return [random_one_sperner(rng.randint(0, 10), rng) for _ in range(60)]


def test_decompose_roundtrip_on_generated():
    for h in random_glue_instances():
        assert is_one_sperner(h)
        assert recompose(decompose(h)) == h


def test_glued_constituents_are_one_sperner():
    for h in random_glue_instances():
        if h.n == 0:
            continue
        t = decompose(h)
        if isinstance(t, HNode):
            h1, h2 = split_at(h, t.z)
            assert is_one_sperner(h1) and is_one_sperner(h2)

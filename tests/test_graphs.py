"""Graph type, pattern search, partitions, derived hypergraphs, incidence graphs."""

import itertools

import pytest
from hypothesis import given, strategies as st

from sperner.graphs import (Graph, GraphError, LabeledBigraph, LabeledSplitGraph,
                            bigraph_of, clique_hypergraph,
                            closed_neighborhood_hypergraph, co_occurrence,
                            cutset_hypergraph, dominating_set_hypergraph,
                            edge_clique_split_of, find_bipartition, find_induced,
                            find_split_partition, independent_set_hypergraph,
                            neighborhood_hypergraph, pattern,
                            vertex_clique_split_of, vertex_cover_hypergraph,
                            edge_hypergraph)
from sperner.hypergraph import Hypergraph, is_conformal, is_sperner, transversal

from oracles import brute_find_induced, brute_minimal_dominating_sets


def graph_strategy(max_n=7):
    def build(t):
        n, bits_ = t
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, [pairs[i] for i in range(len(pairs)) if bits_ >> i & 1])
    return st.tuples(st.integers(0, max_n), st.integers(0, (1 << 21) - 1)).map(build)


P4 = pattern("P4")
C4 = pattern("C4")
K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_complement_examples(self):
        assert K4.complement() == Graph(4, [])
        assert C4.complement() == Graph(4, [(0, 2), (1, 3)])

    @given(graph_strategy())
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert g.components() == [0b00011, 0b01100, 0b10000]
        assert not g.is_connected()
        assert Graph(1, []).is_connected()
        assert Graph(0, []).is_connected()


class TestPatternCatalog:
    def test_h_is_2p3_plus_middle_edge(self):
        two_p3 = pattern("2P3")
        h = pattern("H")
        mids = [v for v in range(6) if two_p3.degree(v) == 2]
        assert sorted(h.edges()) == sorted(two_p3.edges() + [tuple(sorted(mids))])

    def test_co_h_is_complement(self):
        assert pattern("co-H") == pattern("H").complement()
        assert pattern("co-2P3") == pattern("2P3").complement()

    def test_k33_plus_has_one_extra_edge(self):
        assert pattern("K33+").num_edges == pattern("K33").num_edges + 1

    def test_h_split_partition(self):
        from sperner.graphs import H_SPLIT
        h = pattern("H")
        LabeledSplitGraph(h, *H_SPLIT)  # validates clique/independent sides


class TestFindInduced:
    def test_examples(self):
        p5 = Graph(5, [(i, i + 1) for i in range(4)])
        assert find_induced(p5, P4) is not None
        assert find_induced(K4, P4) is None
        w = find_induced(pattern("2P3"), pattern("2P3"))
        assert w is not None and sorted(w) == list(range(6))

    def test_cap(self):
        with pytest.raises(GraphError):
            find_induced(Graph(8, []), Graph(8, []))

    def test_witness_is_induced_embedding(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
        for name in ("P4", "C4", "2K2"):
            w = find_induced(g, pattern(name))
            if w is None:
                continue
            p = pattern(name)
            for i in range(p.n):
                for j in range(i + 1, p.n):
                    assert p.has_edge(i, j) == g.has_edge(w[i], w[j])

    def test_against_brute_on_random(self):
        import random
        rng = random.Random(3)
        pats = [pattern(nm) for nm in ("P4", "C4", "2K2", "2P3", "H")]
        for _ in range(120):
            n = rng.randint(0, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = Graph(n, edges)
            for p in pats:
                assert (find_induced(g, p) is None) == (brute_find_induced(g, p) is None)


class TestSplitPartition:
    def test_examples(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        K, I = find_split_partition(k3)
        assert K == frozenset({0, 1, 2}) and I == frozenset()
        assert find_split_partition(C4) is None

    def test_h_has_split_partition(self):
        K, I = find_split_partition(pattern("H"))
        assert K == frozenset({1, 4}) and I == frozenset({0, 2, 3, 5})

    def test_split_iff_forbidden_free(self):
        # split graphs are exactly the {2K2, C4, C5}-free graphs
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        pats = [pattern("2K2"), pattern("C4"), c5]
        for n in range(0, 6):
            for g in _all_graphs(n):
                expect = all(find_induced(g, p) is None for p in pats)
                got = find_split_partition(g)
                assert (got is not None) == expect, g
                if got is not None:
                    LabeledSplitGraph(g, *got)

    def test_split_cross_check_larger(self):
        import random
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        pats = [pattern("2K2"), pattern("C4"), c5]
        rng = random.Random(77)
        for _ in range(400):
            n = rng.choice((6, 7))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < rng.choice((0.25, 0.5, 0.75))])
            expect = all(find_induced(g, p) is None for p in pats)
            got = find_split_partition(g)
            assert (got is not None) == expect, g
            if got is not None:
                LabeledSplitGraph(g, *got)


def _all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])


class TestBipartition:
    def test_examples(self):
        A, B = find_bipartition(pattern("2P3"))
        assert {len(A), len(B)} == {2, 4}
        assert find_bipartition(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None
        A, B = find_bipartition(Graph(3, []))
        assert A == frozenset(range(3)) and B == frozenset()

    @given(graph_strategy())
    def test_valid_when_found(self, g):
        r = find_bipartition(g)
        if r is not None:
            LabeledBigraph(g, *r)


class TestDerivedHypergraphs:
    def test_clique_hypergraph_examples(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert clique_hypergraph(k3) == Hypergraph(range(3), [{0, 1, 2}])
        two_k3 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert clique_hypergraph(two_k3) == Hypergraph(range(6), [{0, 1, 2}, {3, 4, 5}])
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert clique_hypergraph(p4) == Hypergraph(range(4), [{0, 1}, {1, 2}, {2, 3}])

    def test_clique_hypergraph_properties(self):
        for n in range(0, 6):
            for g in itertools.islice(_all_graphs(n), 0, None, 7):
                ch = clique_hypergraph(g)
                assert is_sperner(ch) and is_conformal(ch)
                assert co_occurrence(ch) == g

    def test_vertex_cover_examples(self):
        k2 = Graph(2, [(0, 1)])
        assert vertex_cover_hypergraph(k2) == Hypergraph(range(2), [{0}, {1}])
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert vertex_cover_hypergraph(p3) == Hypergraph(range(3), [{1}, {0, 2}])
        assert vertex_cover_hypergraph(C4) == Hypergraph(range(4), [{0, 2}, {1, 3}])

    def test_vc_transversal_identity(self):
        for n in range(0, 6):
            for g in itertools.islice(_all_graphs(n), 0, None, 5):
                assert transversal(vertex_cover_hypergraph(g)) == edge_hypergraph(g)

    def test_closed_neighborhood_examples(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert closed_neighborhood_hypergraph(k3) == Hypergraph(range(3), [{0, 1, 2}])
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert closed_neighborhood_hypergraph(p3) == Hypergraph(range(3), [{0, 1}, {1, 2}])
        assert closed_neighborhood_hypergraph(C4).m == 4

    def test_dominating_set_examples(self):
        # minimal dominating sets of C4 = all six 2-subsets
        d = dominating_set_hypergraph(C4)
        assert d == Hypergraph(range(4), [{i, j} for i in range(4) for j in range(i + 1, 4)])
        assert dominating_set_hypergraph(Graph(1, [])) == Hypergraph([0], [{0}])
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert dominating_set_hypergraph(p3) == Hypergraph(range(3), [{1}, {0, 2}])

    def test_dominating_set_both_methods_agree(self):
        import random
        rng = random.Random(1)
        for _ in range(80):
            n = rng.randint(0, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = Graph(n, edges)
            assert dominating_set_hypergraph(g).edge_masks == brute_minimal_dominating_sets(g)

    def test_duality_identity(self):
        for n in range(0, 6):
            for g in itertools.islice(_all_graphs(n), 0, None, 11):
                assert transversal(dominating_set_hypergraph(g)) == \
                    closed_neighborhood_hypergraph(g)

    def test_neighborhood_and_cutset_and_independent(self):
        k2 = Graph(2, [(0, 1)])
        assert neighborhood_hypergraph(k2) == Hypergraph(range(2), [{0}, {1}])
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert cutset_hypergraph(p3) == Hypergraph(range(3), [{1}])
        assert independent_set_hypergraph(C4) == Hypergraph(range(4), [{0, 2}, {1, 3}])
        # isolated vertex: N(v) = {} joins the family (and dominates it)
        g = Graph(2, [])
        assert neighborhood_hypergraph(g) == Hypergraph(range(2), [set()])


class TestIncidenceGraphs:
    def test_smallest_non_one_sperner_incidence(self):
        # V = {u, v, x, y}, E = {{u,v}, {x,y}} is the smallest non-1-Sperner
        # hypergraph: bigraph = 2P3, edge-clique = H, vertex-clique = co-H
        h = Hypergraph(range(4), [{0, 1}, {2, 3}])
        lb = bigraph_of(h)
        assert brute_find_induced(lb.g, pattern("2P3")) is not None and lb.g.n == 6
        assert lb.g.num_edges == 4
        ec = edge_clique_split_of(h)
        assert _isomorphic6(ec.g, pattern("H"))
        vc = vertex_clique_split_of(h)
        assert _isomorphic6(vc.g, pattern("co-H"))

    def test_no_edges(self):
        h = Hypergraph(range(3), [])
        lb = bigraph_of(h)
        assert lb.g.num_edges == 0 and lb.A == frozenset(range(3))

    def test_transpose_swaps_roles(self):
        import random
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(0, 4)
            masks = sorted({rng.randrange(1 << n) for _ in range(rng.randint(0, 4))})
            h = Hypergraph.from_masks(range(n), masks)
            ec = edge_clique_split_of(h)
            # transpose: vertices of the transposed structure are the edges of h
            rows = [[(m >> i) & 1 for i in range(n)] for m in masks]
            m_count = len(masks)
            tverts = list(range(m_count))
            tedges = []
            for i in range(n):
                col = frozenset(j for j in range(m_count) if rows[j][i])
                tedges.append(col)
            # build as hypergraph with duplicate columns collapsed; only
            # compare when all columns are distinct
            if len(set(tedges)) == len(tedges):
                ht = Hypergraph(tverts, tedges)
                vc = vertex_clique_split_of(ht)
                assert _isomorphic_small(ec.g, vc.g)


def _isomorphic6(a: Graph, b: Graph) -> bool:
    return _isomorphic_small(a, b)


def _isomorphic_small(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    return brute_find_induced(a, b) is not None


def test_co_occurrence_examples():
    h = Hypergraph(range(3), [{0, 1, 2}])
    assert co_occurrence(h) == Graph(3, [(0, 1), (0, 2), (1, 2)])
    h2 = Hypergraph(range(3), [{0, 1}, {1, 2}])
    assert co_occurrence(h2) == Graph(3, [(0, 1), (1, 2)])

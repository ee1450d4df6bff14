"""Threshold/domishold recognizers, construction sequences, equivalence reports."""

import itertools

from sperner.bitset import bits
from sperner.graphs import Graph, cutset_hypergraph, neighborhood_hypergraph, pattern
from sperner.recognition import (check_domishold_equivalences,
                                 check_threshold_equivalences,
                                 is_domishold_graph, is_hereditary_connected_domishold,
                                 is_hereditary_total_domishold, is_threshold_graph,
                                 is_threshold_via_nested, threshold_construction,
                                 threshold_graph_violation, all_split_partitions)
from sperner.threshold import is_k_asummable, is_threshold_hypergraph

K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C4 = pattern("C4")
P4 = pattern("P4")


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])


class TestThresholdGraph:
    def test_examples(self):
        assert is_threshold_graph(K4)
        assert not is_threshold_graph(P4)
        assert not is_threshold_graph(pattern("2K2"))

    def test_violation_witness(self):
        name, image = threshold_graph_violation(P4)
        assert name == "P4" and sorted(image) == [0, 1, 2, 3]


class TestConstruction:
    def test_k1(self):
        seq = threshold_construction(Graph(1, []))
        assert seq.steps == () and seq.seed == 0

    def test_k3(self):
        seq = threshold_construction(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert [k for k, _ in seq.steps] == ["universal", "universal"]

    def test_p4_has_none(self):
        assert threshold_construction(P4) is None

    def test_replay_reproduces(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                seq = threshold_construction(g)
                if seq is not None:
                    assert seq.replay(n) == g


class TestNestedCharacterization:
    def test_examples(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_threshold_via_nested(star)
        assert not is_threshold_via_nested(C4)

    def test_agreement_exhaustive(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                a = is_threshold_graph(g)
                assert a == is_threshold_via_nested(g), g
                assert a == (threshold_construction(g) is not None), g


class TestSplitPartitionEnumeration:
    def test_all_partitions_valid(self):
        for n in range(0, 6):
            for g in itertools.islice(all_graphs(n), 0, None, 3):
                for K, I in all_split_partitions(g):
                    km = sum(1 << v for v in K)
                    for v in K:
                        assert km & ~g.adj[v] & ~(1 << v) == 0
                    im = sum(1 << v for v in I)
                    for v in I:
                        assert g.adj[v] & im == 0


class TestDomishold:
    def test_examples(self):
        assert is_domishold_graph(C4)
        assert not is_domishold_graph(pattern("K33"))
        assert not is_domishold_graph(pattern("K33+"))
        assert not is_domishold_graph(pattern("co-2P3"))

    def test_threshold_implies_domishold_small(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                if is_threshold_graph(g):
                    assert is_domishold_graph(g)


class TestEquivalenceReports:
    def test_k4_all_true(self):
        rep = check_threshold_equivalences(K4)
        assert rep.agrees and rep.equivalence_values[0] is True

    def test_p4_all_false(self):
        rep = check_threshold_equivalences(P4)
        assert rep.agrees and rep.equivalence_values[0] is False

    def test_k1_all_true(self):
        rep = check_threshold_equivalences(Graph(1, []))
        assert rep.agrees and all(rep.equivalence_values)
        rep2 = check_domishold_equivalences(Graph(1, []))
        assert rep2.agrees and all(rep2.equivalence_values)

    def test_c4_domishold_report(self):
        rep = check_domishold_equivalences(C4)
        assert rep.agrees and rep.equivalence_values[0] is True
        by_name = {r.name: r.value for r in rep.records}
        assert by_name["dominating-set-threshold"] is True
        assert by_name["dominating-set-1-sperner"] is False

    def test_co_2p3_domishold_all_false(self):
        rep = check_domishold_equivalences(pattern("co-2P3"))
        assert rep.agrees and rep.equivalence_values[0] is False

    def test_to_records(self):
        rep = check_threshold_equivalences(K4)
        recs = rep.to_records()
        assert recs[-1] == {"predicate": "agreement", "value": True,
                            "in_equivalence": False}
        assert all(isinstance(r["value"], bool) for r in recs)

    def test_agreement_exhaustive_n4(self):
        for g in all_graphs(4):
            assert check_threshold_equivalences(g).agrees, g
            assert check_domishold_equivalences(g).agrees, g


class TestHereditary:
    def test_edgeless_true(self):
        g = Graph(3, [])
        assert is_hereditary_total_domishold(g)
        assert is_hereditary_connected_domishold(g)

    def test_k3_true(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert is_hereditary_total_domishold(k3)
        assert is_hereditary_connected_domishold(k3)

    def test_routes_agree_small(self):
        """The 1-Sperner check agrees with the threshold and 2-asummable
        routes over every induced subgraph."""
        import random
        rng = random.Random(17)
        graphs = list(all_graphs(4))
        for _ in range(25):
            n = rng.randint(0, 5)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            graphs.append(Graph(n, edges))
        seen = set()
        for g in graphs:
            subgraphs = [g.induced(bits(sub)) for sub in range(1 << g.n)]
            for check, derive in ((is_hereditary_total_domishold, neighborhood_hypergraph),
                                  (is_hereditary_connected_domishold, cutset_hypergraph)):
                hs = [derive(gs) for gs in subgraphs]
                value = check(g)
                assert value == all(map(is_threshold_hypergraph, hs)), g
                assert value == all(is_k_asummable(h, 2) for h in hs), g
                seen.add(value)
        assert seen == {False, True}

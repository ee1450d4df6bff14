"""Labeled Sperner predicates, the forced split partition, and the four
matrix-partition decompositions."""

import itertools
import random

import pytest

from sperner import sweeps
from sperner.bitset import bits, mask_of
from sperner.decomposition import (DecompLeaf, DecompNode, DecompositionError,
                                   MPartition,
                                   clique_sperner_partition,
                                   decompose_bigraph_2p3_free, decompose_cobigraph,
                                   decompose_split_h_free, decompose_split_hbar_free,
                                   find_right_sperner_bipartition,
                                   independent_sperner_partition, is_clique_sperner,
                                   is_independent_sperner, is_right_sperner,
                                   m_matrix, tree_to_text, validate_m_partition)
from sperner.generators import (random_bigraph_2p3_free, random_split_h_free,
                                random_split_hbar_free)
from sperner.graphs import (Graph, GraphError, LabeledBigraph, LabeledSplitGraph,
                            bigraph_of, edge_clique_split_of, find_induced,
                            pattern, vertex_clique_split_of)
from sperner.hypergraph import (Hypergraph, is_one_sperner, is_sperner,
                                marked_preorder)


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])


class TestLabeledSperner:
    def test_right_sperner_examples(self):
        lb = bigraph_of(Hypergraph(range(4), [{0, 1}, {2, 3}]))
        assert is_right_sperner(lb)

    def test_clique_sperner_examples(self):
        ec = edge_clique_split_of(Hypergraph(range(3), [{0, 1}, {0, 1, 2}]))
        assert not is_clique_sperner(ec)
        tiny = LabeledSplitGraph(Graph(1, []), frozenset({0}), frozenset())
        assert is_clique_sperner(tiny)

    def test_incidence_predicates_match_hypergraph_predicates(self):
        # Sperner <=> all three incidence Sperner predicates; dually Sperner
        # <=> the corresponding freeness conditions
        for n in range(0, 4):
            for m in range(0, 4):
                for masks in itertools.combinations(range(1 << n), m):
                    h = Hypergraph.from_masks(range(n), masks)
                    sp = is_sperner(h)
                    assert is_right_sperner(bigraph_of(h)) == sp
                    assert is_independent_sperner(vertex_clique_split_of(h)) == sp
                    assert is_clique_sperner(edge_clique_split_of(h)) == sp

    def test_incidence_predicates_sampled_six_by_six(self):
        from sperner.decomposition import (labeled_co_h_witness, labeled_h_witness,
                                           labeled_two_p3_witness)
        from sperner.hypergraph import is_dually_sperner
        rng = random.Random(55)
        for _ in range(400):
            masks = sorted({rng.randrange(64) for _ in range(rng.randint(0, 6))})
            h = Hypergraph.from_masks(range(6), masks)
            sp = is_sperner(h)
            assert is_right_sperner(bigraph_of(h)) == sp
            assert is_independent_sperner(vertex_clique_split_of(h)) == sp
            assert is_clique_sperner(edge_clique_split_of(h)) == sp
            du = is_dually_sperner(h)
            assert (labeled_two_p3_witness(bigraph_of(h)) is None) == du
            assert (labeled_co_h_witness(vertex_clique_split_of(h)) is None) == du
            assert (labeled_h_witness(edge_clique_split_of(h)) is None) == du


class TestMMatrix:
    def test_symmetric(self):
        for a in (0, 1):
            for b in (0, 1):
                mat = m_matrix(a, b)
                for i in range(5):
                    for j in range(5):
                        assert mat[i][j] == mat[j][i]

    def test_validate_example(self):
        # K = {v1, v2} = {0, 1}; I = {z, u1, u2} = {2, 3, 4};
        # N(v1) cap I = {z, u1}, N(v2) cap I = {u1, u2}
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
        parts = (1 << 2, 1 << 3, 1 << 4, 1 << 0, 1 << 1)
        ok, _ = validate_m_partition(g, MPartition(parts, 0, 1))
        assert ok
        ok2, pair = validate_m_partition(g, MPartition(parts, 0, 0))
        assert not ok2 and pair == (0, 1)

    def test_all_empty_but_z(self):
        g = Graph(1, [])
        parts = (1, 0, 0, 0, 0)
        for a in (0, 1):
            for b in (0, 1):
                assert validate_m_partition(g, MPartition(parts, a, b))[0]

    def test_partition_errors(self):
        with pytest.raises(DecompositionError):
            MPartition((1, 1, 0, 0, 0), 0, 1)


class TestCliqueSpernerPartition:
    def test_edgeless(self):
        ls = clique_sperner_partition(Graph(3, []))
        assert ls.K == frozenset() and ls.I == frozenset(range(3))

    def test_single_edge_plus_isolated(self):
        ls = clique_sperner_partition(Graph(3, [(0, 1)]))
        assert ls.K == frozenset({0})

    def test_h_graph(self):
        ls = clique_sperner_partition(pattern("H"))
        assert ls is not None and ls.K == frozenset({1, 4})
        assert is_clique_sperner(ls)

    def test_not_split_raises(self):
        with pytest.raises(GraphError):
            clique_sperner_partition(pattern("C4"))

    def test_uniqueness_of_maximal_partition(self):
        # when a clique-Sperner partition exists and the graph has >= 2
        # edges, it is the unique split partition with I maximal
        from sperner.recognition import all_split_partitions
        for n in range(1, 6):
            for g in all_graphs(n):
                if g.num_edges < 2:
                    continue
                try:
                    got = clique_sperner_partition(g)
                except GraphError:
                    continue
                maximal = []
                for K, I in all_split_partitions(g):
                    im = mask_of(I)
                    if all(g.adj[v] & im for v in K):
                        maximal.append((K, I))
                winners = [p for p in maximal
                           if is_clique_sperner(LabeledSplitGraph(g, *p))]
                if got is None:
                    assert not winners
                else:
                    assert maximal == [(got.K, got.I)] or winners == [(got.K, got.I)]
                    assert len({k for k, _ in maximal}) == 1

    def test_brute_force_agreement(self):
        # search over all split partitions directly
        from sperner.recognition import all_split_partitions
        for n in range(0, 6):
            for g in all_graphs(n):
                try:
                    got = clique_sperner_partition(g)
                except GraphError:
                    continue
                any_valid = any(is_clique_sperner(LabeledSplitGraph(g, K, I))
                                for K, I in all_split_partitions(g))
                assert (got is not None) == any_valid, g


def _check_tree(g, tree, a, b, zside, other):
    """Every node validates; parts land on the right sides; leaves cover once."""
    seen = set()

    def walk(t, zmask, omask):
        if isinstance(t, DecompLeaf):
            if t.vertex is not None:
                assert t.vertex not in seen
                seen.add(t.vertex)
                assert bool(zmask >> t.vertex & 1) == t.on_z_side
            return
        p = t.partition
        assert (p.a, p.b) == (a, b)
        ok, pair = validate_m_partition(g, p)
        assert ok, (g, p, pair)
        z = p.z
        assert zmask >> z & 1
        assert z not in seen
        seen.add(z)
        p1, p2, p3, p4 = p.parts[1:]
        assert (p1 | p2) & omask == 0
        assert (p3 | p4) & zmask == 0
        assert (1 << z) | p1 | p2 | p3 | p4 == zmask | omask
        walk(t.left, p1, p3)
        walk(t.right, p2, p4)

    walk(tree, zside, other)
    assert seen == set(bits(zside | other))


class TestSplitHFree:
    def test_five_vertex_example(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
        ls = LabeledSplitGraph(g, frozenset({0, 1}), frozenset({2, 3, 4}))
        tree = decompose_split_h_free(ls)
        assert isinstance(tree, DecompNode)
        assert tree.z == 2
        assert tree.partition.parts[1:] == (1 << 3, 1 << 4, 1 << 0, 1 << 1)
        _check_tree(g, tree, 0, 1, mask_of(ls.I), mask_of(ls.K))

    def test_single_clique_vertex(self):
        ls = LabeledSplitGraph(Graph(1, []), frozenset({0}), frozenset())
        tree = decompose_split_h_free(ls)
        assert isinstance(tree, DecompLeaf) and not tree.on_z_side

    def test_rejects_h(self):
        h = pattern("H")
        ls = LabeledSplitGraph(h, frozenset({1, 4}), frozenset({0, 2, 3, 5}))
        with pytest.raises(DecompositionError):
            decompose_split_h_free(ls)

    def test_rejects_non_clique_sperner(self):
        ec = edge_clique_split_of(Hypergraph(range(3), [{0, 1}, {0, 1, 2}]))
        with pytest.raises(DecompositionError):
            decompose_split_h_free(ec)

    def test_generated_instances(self):
        rng = random.Random(101)
        for _ in range(60):
            ls = random_split_h_free(rng.randint(1, 14), rng)
            tree = decompose_split_h_free(ls)
            _check_tree(ls.g, tree, 0, 1, mask_of(ls.I), mask_of(ls.K))


class TestSplitHbarFree:
    def test_generated_instances(self):
        rng = random.Random(102)
        for _ in range(60):
            ls = random_split_hbar_free(rng.randint(1, 14), rng)
            tree = decompose_split_hbar_free(ls)
            _check_tree(ls.g, tree, 1, 0, mask_of(ls.K), mask_of(ls.I))

    def test_k1(self):
        ls = LabeledSplitGraph(Graph(1, []), frozenset(), frozenset({0}))
        tree = decompose_split_hbar_free(ls)
        assert isinstance(tree, DecompLeaf)

    def test_rejects_co_h(self):
        ls = independent_sperner_partition(pattern("co-H"))
        assert ls is not None
        with pytest.raises(DecompositionError):
            decompose_split_hbar_free(ls)


class TestBigraph:
    def test_k2(self):
        lb = LabeledBigraph(Graph(2, [(0, 1)]), frozenset({0}), frozenset({1}))
        tree = decompose_bigraph_2p3_free(lb)
        assert isinstance(tree, DecompNode) and tree.z == 0
        assert tree.partition.parts[3] == 1 << 1

    def test_rejects_2p3(self):
        g = pattern("2P3")
        lb = LabeledBigraph(g, frozenset({0, 2, 3, 5}), frozenset({1, 4}))
        with pytest.raises(DecompositionError):
            decompose_bigraph_2p3_free(lb)

    def test_generated_instances(self):
        rng = random.Random(103)
        for _ in range(50):
            lb = random_bigraph_2p3_free(rng.randint(1, 12), rng)
            tree = decompose_bigraph_2p3_free(lb)
            _check_tree(lb.g, tree, 0, 0, mask_of(lb.A), mask_of(lb.B))


class TestCobigraph:
    def test_complement_of_k2_example(self):
        g = Graph(2, [(0, 1)]).complement()  # 2K1
        tree = decompose_cobigraph(g)
        _check_tree(g, tree, 1, 1,
                    mask_of(frozenset(range(g.n))) & mask_of(_zside_of(tree)),
                    mask_of(frozenset(range(g.n))) & ~mask_of(_zside_of(tree)))

    def test_rejects_co_2p3(self):
        with pytest.raises(DecompositionError):
            decompose_cobigraph(pattern("co-2P3"))

    def test_generated_instances(self):
        rng = random.Random(104)
        for _ in range(50):
            lb = random_bigraph_2p3_free(rng.randint(1, 12), rng)
            g = lb.g.complement()
            tree = decompose_cobigraph(g)
            for p in partitions(tree):
                ok, pair = validate_m_partition(g, p)
                assert ok, (g, p, pair)


def partitions(tree):
    """The partitions of a tree's inner nodes, in preorder."""
    return [x for x in marked_preorder(tree) if isinstance(x, MPartition)]


def _zside_of(tree):
    out = set()

    def walk(t):
        if isinstance(t, DecompLeaf):
            if t.vertex is not None and t.on_z_side:
                out.add(t.vertex)
            return
        out.add(t.partition.z)
        out.update(bits(t.partition.parts[1] | t.partition.parts[2]))
        walk(t.left)
        walk(t.right)

    walk(tree)
    return out


class TestRightSpernerBipartition:
    def test_isolated_and_k2_components(self):
        g = Graph(5, [(1, 2), (3, 4)])
        with_large = find_right_sperner_bipartition(g)
        assert with_large is not None
        assert 0 in with_large.A
        assert len(with_large.B & {1, 2}) == 1

    def test_two_large_components_raise(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DecompositionError):
            find_right_sperner_bipartition(g)

    def test_none_for_non_bipartite(self):
        assert find_right_sperner_bipartition(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None


class TestChildrenStayInClass:
    def test_split_h_free_children(self):
        rng = random.Random(105)
        h_pat = pattern("H")
        for _ in range(40):
            ls = random_split_h_free(rng.randint(2, 12), rng)
            tree = decompose_split_h_free(ls)
            for p in partitions(tree):
                for kpart, ipart in ((p.parts[3], p.parts[1]), (p.parts[4], p.parts[2])):
                    sub, ids = ls.g.induced_with_map(bits(kpart | ipart))
                    pos = {v: i for i, v in enumerate(ids)}
                    child = LabeledSplitGraph(sub, frozenset(pos[v] for v in bits(kpart)),
                                              frozenset(pos[v] for v in bits(ipart)))
                    assert is_clique_sperner(child)
                    assert find_induced(sub, h_pat) is None


def test_tree_serialization_roundtrippable_text():
    rng = random.Random(106)
    ls = random_split_h_free(8, rng)
    tree = decompose_split_h_free(ls)
    text = tree_to_text(tree)
    assert "M[0,1]" in text or "leaf" in text
    for p in partitions(tree):
        assert f"z={p.z}" in text


def test_derived_hyperedges_are_one_sperner():
    # inside the decomposition, the clique-side neighborhoods restricted to
    # the independent side form a 1-Sperner hypergraph
    rng = random.Random(107)
    for _ in range(30):
        ls = random_split_h_free(rng.randint(2, 12), rng)
        imask = mask_of(ls.I)
        ipos = {v: i for i, v in enumerate(sorted(ls.I))}
        edges = []
        for v in sorted(ls.K):
            edges.append({ipos[u] for u in bits(ls.g.adj[v] & imask)})
        h = Hypergraph(range(len(ls.I)), edges)
        assert is_one_sperner(h)


def test_sweep_flags_a_tree_that_repeats_a_vertex(monkeypatch):
    """The edge 0-1 as a bigraph decomposes as z = 0 over the leaves 1 and
    empty. A tree with leaf 1 in place of the empty one passes every
    matrix check and covers the vertex set as a set, but not exactly
    once."""
    lb = LabeledBigraph(Graph(2, [(0, 1)]), frozenset({0}), frozenset({1}))
    rep = sweeps.SweepReport("graph-decomposition", None, {})
    assert sweeps._check_decomposition("bigraph", lb, rep) is not None
    assert rep.disagreements == []
    tree = decompose_bigraph_2p3_free(lb)
    assert tree.right == DecompLeaf(None, True)
    repeated = DecompNode(tree.partition, tree.left, DecompLeaf(1, False))
    monkeypatch.setitem(sweeps._CLASSES, "bigraph", sweeps._CLASSES["bigraph"]._replace(
        decompose=lambda inst: repeated))
    assert sweeps._check_decomposition("bigraph", lb, rep) is None
    assert rep.disagreements == [f"bigraph {lb.g}: tree covers [0, 1, 1]"]

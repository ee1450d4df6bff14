"""Generators and enumerators: determinism, class membership, coverage."""

import random

from sperner.decomposition import is_clique_sperner, is_right_sperner
from sperner.generators import (antichain_bitmaps, bigraph_structures,
                                hyperedge_families, labeled_graphs,
                                one_sperner_hypergraphs, random_bigraph_2p3_free,
                                random_one_sperner, random_split_h_free,
                                split_graph_structures)
from sperner.graphs import Graph, find_induced, pattern
from sperner.hypergraph import is_one_sperner
from sperner.bitset import bits, containment_pair


def test_random_one_sperner_is_one_sperner_and_deterministic():
    rng1 = random.Random(42)
    rng2 = random.Random(42)
    for _ in range(40):
        n = rng1.randint(0, 12)
        h1 = random_one_sperner(n, rng1)
        random.Random(0)  # unrelated draw must not matter
        h2 = random_one_sperner(rng2.randint(0, 12), rng2)
        assert h1 == h2
        assert is_one_sperner(h1)
        assert h1.vertices == tuple(range(n))


def test_size_zero():
    h = random_one_sperner(0, random.Random(1))
    assert h.n == 0


def test_random_split_h_free_in_class():
    rng = random.Random(7)
    for _ in range(30):
        ls = random_split_h_free(rng.randint(1, 15), rng)
        assert is_clique_sperner(ls)
        assert find_induced(ls.g, pattern("H")) is None


def test_random_bigraph_in_class():
    rng = random.Random(8)
    for _ in range(30):
        lb = random_bigraph_2p3_free(rng.randint(1, 12), rng)
        assert is_right_sperner(lb)
        assert find_induced(lb.g, pattern("2P3")) is None


def test_labeled_graph_counts():
    assert sum(1 for _ in labeled_graphs(0)) == 1
    assert sum(1 for _ in labeled_graphs(3)) == 8
    assert sum(1 for _ in labeled_graphs(4)) == 64


def test_antichain_counts_match_dedekind():
    # numbers of antichains in the subset lattice
    for n, count in ((0, 2), (1, 3), (2, 6), (3, 20), (4, 168)):
        got = list(antichain_bitmaps(n))
        assert len(got) == count
        assert len(set(got)) == count
        for fam in got:
            assert containment_pair(list(bits(fam))) is None


def test_hyperedge_family_counts():
    # families of at most 2 distinct hyperedges over 2 vertices
    fams = list(hyperedge_families(2, 2))
    assert len(fams) == 1 + 4 + 6


def test_one_sperner_enumeration_has_no_duplicates_and_is_sound():
    seen = set()
    for h in one_sperner_hypergraphs(5):
        assert is_one_sperner(h)
        key = (h.n, h.edge_masks)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 47  # |V| + |E| <= 5


def test_split_structures_cover_small_split_graphs():
    # every split graph on 4 vertices appears (up to isomorphism, checked
    # by a brute-force isomorphism test against the enumerated pool)
    from oracles import brute_find_induced
    pool = [ls.g for ls in split_graph_structures(4)]
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    from sperner.graphs import find_split_partition
    for picks in range(1 << 6):
        g = Graph(4, [pairs[i] for i in range(6) if picks >> i & 1])
        if find_split_partition(g) is None:
            continue
        assert any(p.n == g.n and p.num_edges == g.num_edges
                   and brute_find_induced(p, g) is not None for p in pool), g


def test_split_structures_are_valid_split_partitions():
    for ls in split_graph_structures(5):
        pass  # LabeledSplitGraph validates K clique / I independent on build


def test_bigraph_structures_are_bipartite():
    count = 0
    for lb in bigraph_structures(4):
        count += 1
    assert count > 10

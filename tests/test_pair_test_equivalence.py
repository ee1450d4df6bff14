"""The O(|K|^2) pair tests decide induced H and co-H on split graphs.

``labeled_h_witness`` / ``labeled_co_h_witness`` look at one split
partition only, and the hot paths use whichever one the degree-sequence
test returns, so the agreement with the brute-force oracle is checked
under every split partition of every split graph structure with at most
eight vertices.
"""

import itertools

from sperner.decomposition import labeled_co_h_witness, labeled_h_witness
from sperner.generators import split_graph_structures
from sperner.graphs import LabeledSplitGraph, find_split_partition, pattern

from oracles import brute_find_induced

MAX_N = 8


def split_partitions(g, K):
    """Every split partition (K', I') of g, given one with clique side K.

    A clique and an independent set share at most one vertex, so K' differs
    from K by at most one vertex leaving and one vertex entering; each
    candidate is checked directly.
    """
    V = frozenset(range(g.n))
    I = V - K
    found = set()
    for out in [None, *K]:
        for into in [None, *I]:
            K2 = (K - {out}) | ({into} - {None})
            I2 = V - K2
            clique = all(g.has_edge(u, v) for u, v in itertools.combinations(K2, 2))
            independent = not any(g.has_edge(u, v)
                                  for u, v in itertools.combinations(I2, 2))
            if clique and independent:
                found.add((K2, I2))
    return found


class _SixVertexOracle:
    """``brute_find_induced`` run on every 6-vertex induced subgraph.

    A graph contains a 6-vertex pattern iff one of its 6-vertex induced
    subgraphs does; the answers are cached by the subgraph's adjacency,
    which keeps the oracle at a few seconds for every structure up to
    eight vertices instead of minutes of 8P6 injections per graph.
    """

    def __init__(self, pat):
        self.pat = pat
        self.cache = {}

    def contains(self, g) -> bool:
        for sub_vs in itertools.combinations(range(g.n), self.pat.n):
            sub = g.induced(sub_vs)
            key = tuple(sub.adj)
            if key not in self.cache:
                self.cache[key] = brute_find_induced(sub, self.pat) is not None
            if self.cache[key]:
                return True
        return False


def test_pair_tests_match_brute_force_under_every_split_partition():
    has_h = _SixVertexOracle(pattern("H"))
    has_co_h = _SixVertexOracle(pattern("co-H"))
    graphs = partitions = with_h = with_co_h = 0
    for n in range(MAX_N + 1):
        for ls in split_graph_structures(n):
            g = ls.g
            want_h, want_co_h = has_h.contains(g), has_co_h.contains(g)
            parts = split_partitions(g, ls.K)
            assert find_split_partition(g) in parts
            for K, I in parts:
                labeled = LabeledSplitGraph(g, K, I)
                assert (labeled_h_witness(labeled) is not None) == want_h, (g, K)
                assert (labeled_co_h_witness(labeled) is not None) == want_co_h, (g, K)
            graphs += 1
            partitions += len(parts)
            with_h += want_h
            with_co_h += want_co_h
    # every structure was seen, and both answers occur often, so neither
    # test passes by always saying no
    assert graphs == 12_954 and partitions > graphs
    assert with_h > 1000 and with_co_h > 500

"""The key-and-mask domination DP against the witness-tuple DP it replaced
(``oracles.dp_table``): the same state table, entry by entry, witness
order included. Inputs are the 5-expressions of every component's
clique-Sperner residue of the H-free split graphs of at most seven
vertices and of seeded 19-vertex split graphs of 1-Sperner hypergraphs,
random expressions with
int ids of 10 and more (``str`` order differs from int order there) or
with str ids, and the deep chain and comb."""

import random

import pytest

import oracles
import sperner.domination as domination
from sperner.bitset import bits, mask_of, popcount
from sperner.cliquewidth import (AddEdges, Leaf, Relabel, Union_,
                                 build_split_h_free, evaluate, max_label,
                                 postfix)
from sperner.domination import OutOfClassError, dp_dominating_set
from sperner.generators import random_one_sperner, split_graph_structures
from sperner.graphs import (LabeledSplitGraph, edge_clique_split_of,
                            find_split_partition)
from test_deep_expressions import rel_adde_chain, union_comb


def dp_table(e):
    """``domination._dp``'s table in the oracle's terms: (selected mask,
    dominated mask) -> (size, witness tuple in ``str`` order)."""
    k = max(1, max_label(e))
    full = (1 << k) - 1
    by_rank, nat = domination._witness_order(evaluate(e).vertices)
    return {(key >> k, full ^ key & full): (n, tuple(by_rank[r] for r in bits(w)))
            for key, (n, w) in domination._dp(postfix(e), k, by_rank, nat).items()}


def assert_tables_match(exprs):
    assert exprs
    for e in exprs:
        assert dp_table(e) == oracles.dp_table(e, max(1, max_label(e)))


def clique_sperner_residue(g, comp):
    """Component ``comp`` (two or more vertices) of an H-free split graph
    reduced to one clique vertex per independent-side neighborhood, the
    lowest, none strictly inside another: a clique-Sperner labeled split
    graph with the component's domination number."""
    sub, _ = g.induced_with_map(bits(comp))
    K, I = find_split_partition(sub)
    imask = mask_of(I)
    by_hood = {}
    for v in sorted(K):
        by_hood.setdefault(sub.adj[v] & imask, v)
    kept = {v for hood, v in by_hood.items()
            if not any(hood != h2 and hood & h2 == hood for h2 in by_hood)}
    res, rids = sub.induced_with_map(kept | I)
    rpos = {v: i for i, v in enumerate(rids)}
    return LabeledSplitGraph(res, frozenset(rpos[v] for v in kept),
                             frozenset(rpos[v] for v in I))


def pipeline_expressions(graphs):
    """The 5-expression of every component's clique-Sperner residue, over
    the components with two or more vertices of the graphs of ``graphs``
    in the H-free split class (the others are skipped)."""
    exprs = []
    for g in graphs:
        try:
            domination.solve_h_free_split_all(g)
        except OutOfClassError:
            continue
        exprs += [build_split_h_free(clique_sperner_residue(g, c))
                  for c in g.components() if popcount(c) > 1]
    return exprs


def test_pipeline_expressions_on_small_split_graphs():
    graphs = [ls.g for n in range(1, 8) for ls in split_graph_structures(n)]
    exprs = pipeline_expressions(graphs)
    assert len(exprs) > 500
    assert_tables_match(exprs)


def test_pipeline_expressions_on_19_vertex_split_graphs():
    rng = random.Random(1019)
    graphs = []
    while len(graphs) < 100:
        g = edge_clique_split_of(random_one_sperner(12, rng)).g
        if g.n == 19:
            graphs.append(g)
    exprs = pipeline_expressions(graphs)
    assert len(exprs) >= 100
    assert_tables_match(exprs)


def random_expression(rng, ids):
    """A random expression on labels 1..4 with one leaf per id of ``ids``."""
    parts = [Leaf(rng.randint(1, 4), v) for v in ids]
    while len(parts) > 1 or rng.random() < 0.3:
        i = rng.randrange(len(parts))
        op = rng.randrange(3) if len(parts) > 1 else rng.randrange(1, 3)
        a, b = rng.sample(range(1, 5), 2)
        if op == 0:
            j = rng.randrange(len(parts) - 1)
            j += j >= i
            parts[i] = Union_(parts[i], parts[j])
            del parts[j]
        elif op == 1:
            parts[i] = Relabel(a, b, parts[i])
        else:
            parts[i] = AddEdges(a, b, parts[i])
    return parts[0]


@pytest.mark.parametrize("make_id", [
    lambda i: i,
    lambda i: f"x{i}",
    lambda i: "abcdefghijklmnopqrstuvwxyz"[i % 26] * (1 + i // 26),
], ids=["int", "str-prefixed", "str-letters"])
def test_random_expressions(make_id):
    rng = random.Random(1020)
    exprs = []
    for _ in range(300):
        ids = rng.sample(range(40), rng.randint(1, 12))
        exprs.append(random_expression(rng, [make_id(i) for i in ids]))
    assert_tables_match(exprs)


def test_int_ids_where_str_order_decides():
    """The complete bipartite graph on {10, 2} and {3, 30}: every pair
    dominates, so most states hold ties of size, and "10" < "2" puts the
    ``str``-sorted witness tuples in another order than the ints."""
    e = AddEdges(1, 2, Union_(Union_(Leaf(1, 10), Leaf(1, 2)),
                              Union_(Leaf(2, 3), Leaf(2, 30))))
    assert_tables_match([e])
    assert dp_dominating_set(e).witness == frozenset({2, 3})


@pytest.mark.parametrize("make", [rel_adde_chain, union_comb])
def test_deep_expressions(make):
    assert_tables_match([make()])


def test_mixed_int_and_str_ids():
    """Ints come before strs, as ``evaluate`` sorts vertices; the complete
    bipartite graph on {0, 'a'} and {1, 'b'} has six dominating pairs, and
    the least one is (0, 1)."""
    assert dp_dominating_set(Union_(Leaf(1, 0), Leaf(1, "a"))).witness == {0, "a"}
    e = AddEdges(1, 2, Union_(Union_(Leaf(1, 0), Leaf(1, "a")),
                              Union_(Leaf(2, "b"), Leaf(2, 1))))
    res = dp_dominating_set(e)
    assert (res.size, res.witness) == (2, frozenset({0, 1}))

"""The M[a,b] decomposition core against the recursive join scan it
replaced (``oracles.decompose_core_join_scan``).

The library finds each level's z through ``hypergraph.gluing_split`` on
the level's hyperedges N(k) & Z; the oracle tries every z-side vertex
with a neighbourhood walk and a join test. Both are run on every class
of ``GRAPH_CLASSES``, and must print the same tree or raise the same
error, type and message.
"""

import random

import pytest

from oracles import decompose_core_join_scan
from sperner import decomposition
from sperner.bitset import mask_of
from sperner.decomposition import GRAPH_CLASSES, tree_to_text
from sperner.generators import (random_bigraph_2p3_free, random_cobigraph,
                                random_graph, random_split_h_free,
                                random_split_hbar_free)
from sperner.graphs import Graph, edge_clique_split_of
from test_deep_expressions import gluing_chain

GENERATORS = {
    "split-H": lambda n, rng: random_split_h_free(n, rng).g,
    "split-Hbar": lambda n, rng: random_split_hbar_free(n, rng).g,
    "bigraph": lambda n, rng: random_bigraph_2p3_free(n, rng).g,
    "cobigraph": random_cobigraph,
}


def outcome(run):
    try:
        return tree_to_text(run())
    except ValueError as err:
        return type(err), str(err)


def both(monkeypatch, run):
    """``run()``'s outcome with the library's core, then with the oracle's."""
    got = outcome(run)
    with monkeypatch.context() as m:
        m.setattr(decomposition, "_decompose_core", decompose_core_join_scan)
        want = outcome(run)
    return got, want


def seeded_graphs(kind: str, seed: int):
    """In-class draws of ``kind`` and plain random graphs, which reach the
    class checks and their errors."""
    rng = random.Random(seed)
    for _ in range(60):
        yield GENERATORS[kind](rng.randint(1, 24), rng)
    for _ in range(60):
        yield random_graph(rng.randint(1, 9), rng, rng.choice((0.2, 0.5, 0.8)))


@pytest.mark.parametrize("kind", sorted(GRAPH_CLASSES))
def test_trees_and_errors_match_the_join_scan(kind, monkeypatch):
    texts = 0
    for g in seeded_graphs(kind, 15):
        got, want = both(monkeypatch, lambda: GRAPH_CLASSES[kind](g))
        assert got == want, g
        texts += isinstance(got, str)
    assert texts >= 60


def test_core_errors_match_the_join_scan(monkeypatch):
    """Right-Sperner bigraphs that may hold a 2P3, given straight to the
    core: where the level's hypergraph is not 1-Sperner, no z exists."""
    rng = random.Random(16)
    errors = 0
    for _ in range(1500):
        na, nb = rng.randint(1, 7), rng.randint(1, 5)
        adj = [rng.getrandbits(na) for _ in range(nb)]
        if any(x & y in (x, y) for i, x in enumerate(adj) for y in adj[i + 1:]):
            continue
        edges = [(u, na + k) for k, nk in enumerate(adj) for u in range(na) if nk >> u & 1]
        g = Graph(na + nb, edges)
        zside, other = mask_of(range(na)), mask_of(range(na, na + nb))
        got, want = both(monkeypatch, lambda: decomposition._decompose_core(
            g, zside, other, 0, 0, "2P3-free right-Sperner bigraph"))
        assert got == want, g
        errors += not isinstance(got, str)
    assert errors >= 50


@pytest.mark.parametrize("kind, complemented", [("split-H", False), ("split-Hbar", True)])
def test_the_300_step_gluing_chain_matches_the_join_scan(kind, complemented, monkeypatch):
    g = edge_clique_split_of(gluing_chain(300, 11)).g
    if complemented:
        g = g.complement()
    got, want = both(monkeypatch, lambda: GRAPH_CLASSES[kind](g))
    assert isinstance(got, str) and got.count("\n") > 400
    assert got == want

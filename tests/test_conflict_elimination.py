"""The gluing-vertex scan that drops every vertex a conflict refutes.

When ``_split_masks`` finds that a level is not z-decomposable it returns
a conflict mask, and by the conflict lemma (``sperner.hypergraph``) no
vertex in that mask is a gluing vertex either, so ``gluing_preorder``
drops them all from its scan. These tests check the lemma against the
definition on every family on at most 4 vertices, and the scan against
the lowest-first scan it replaced.
"""

import random

import pytest

import oracles
from oracles import brute_gluing_vertices, gluing_preorder_lowest_first
from sperner import hypergraph
from sperner.generators import random_one_sperner
from sperner.hypergraph import Hypergraph, gluing_preorder
from test_deep_expressions import gluing_chain


def all_small_families():
    """Every family of hyperedges on at most 4 vertices: 65,814 in all."""
    for n in range(5):
        for picks in range(1 << (1 << n)):
            yield Hypergraph.from_masks(
                range(n), [s for s in range(1 << n) if picks >> s & 1])


def seeded_one_sperner(count: int, lo: int, hi: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_one_sperner(rng.randint(lo, hi), rng)


def small_inputs():
    yield from all_small_families()
    yield from seeded_one_sperner(60, 0, 40, 14)


def test_no_conflict_vertex_is_a_gluing_vertex():
    failures = 0
    for h in small_inputs():
        gluing = {h.position(z) for z in brute_gluing_vertices(h)}
        # levels below the top see their masks in other orders
        for masks in (h.edge_masks, h.edge_masks[::-1]):
            for p in range(h.n):
                result = hypergraph._split_masks(masks, 1 << p)
                if type(result) is tuple:
                    assert p in gluing, (h, p)
                    continue
                failures += 1
                assert p not in gluing, (h, p)
                assert result and not result >> p & 1, (h, p, result)
                assert not any(result >> q & 1 for q in gluing), (h, p, result)
    assert failures > 100_000


def test_preorder_matches_the_lowest_first_scan():
    count = 0
    for h in small_inputs():
        assert gluing_preorder(h) == gluing_preorder_lowest_first(h), h
        count += 1
    assert count == 65_814 + 60


@pytest.mark.parametrize("inputs", [
    lambda: seeded_one_sperner(5, 150, 150, 150),
    lambda: [gluing_chain(600, 11)],
], ids=["random-150", "chain-600"])
def test_preorder_matches_the_lowest_first_scan_at_scale(inputs):
    for h in inputs():
        order = gluing_preorder(h)
        assert order is not None
        assert order == gluing_preorder_lowest_first(h)


def test_conflicts_save_split_calls(monkeypatch):
    """On one seeded 1-Sperner hypergraph with 150 vertices the scan tests
    fewer candidates than the lowest-first scan, for the same preorder."""
    h = random_one_sperner(150, random.Random(1))
    calls = {"scan": 0, "lowest_first": 0}

    def counted(key, split):
        def wrapper(masks, zb):
            calls[key] += 1
            return split(masks, zb)
        return wrapper

    monkeypatch.setattr(hypergraph, "_split_masks",
                        counted("scan", hypergraph._split_masks))
    monkeypatch.setattr(oracles, "split_at_bit",
                        counted("lowest_first", oracles.split_at_bit))
    assert gluing_preorder(h) == gluing_preorder_lowest_first(h)
    assert calls == {"scan": 243, "lowest_first": 560}

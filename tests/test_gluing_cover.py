"""The minimum cover along one gluing path (``domination._min_cover``)
against a brute-force minimum cover, on every 1-Sperner hypergraph with
|V| + |E| <= 9 whose every vertex lies in a hyperedge."""

import oracles
from sperner.domination import _min_cover
from sperner.generators import one_sperner_hypergraphs


def test_cover_is_minimum_on_every_small_covering_hypergraph():
    checked = 0
    for h in one_sperner_hypergraphs(9):
        masks = list(h.edge_masks)
        vm = (1 << h.n) - 1
        union = 0
        for e in masks:
            union |= e
        if union != vm:
            continue
        checked += 1
        cover = _min_cover(vm, masks, list(range(len(masks))))
        assert len(set(cover)) == len(cover), h
        union = 0
        for i in cover:
            union |= masks[i]
        assert union == vm, (h, cover)
        assert len(cover) == oracles.brute_min_cover_size(masks, vm), (h, cover)
    assert checked > 4000

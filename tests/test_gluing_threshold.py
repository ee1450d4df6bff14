"""The threshold certificate folded over the gluing decomposition, against
the pairwise 1-Sperner check, a mask-by-mask separation check and the LP,
on every Sperner family over at most five vertices and on seeded random
1-Sperner hypergraphs."""

import random

from sperner import threshold
from sperner.bitset import minimal_masks
from sperner.generators import random_one_sperner
from sperner.hypergraph import gluing_preorder, is_one_sperner

from oracles import separates_mask_by_mask
from test_regularity_pretest import sperner_families


def _lp(h):
    return threshold._lp_threshold_witness(h, minimal_masks(h.edge_masks))


def _certifies(h, witness):
    wint, tint = threshold._integer_scaled(witness.weights, witness.threshold)
    return witness.verify(h) and separates_mask_by_mask(h, wint, tint)


def test_fold_certifies_exactly_the_one_sperner_families_as_the_lp_does():
    certified = compared = 0
    for h in sperner_families(5):
        witness = threshold._gluing_threshold_witness(h, gluing_preorder(h))
        assert (witness is not None) == is_one_sperner(h), h
        if witness is None:
            continue
        certified += 1
        assert _certifies(h, witness), h
        if 0 in h.edge_masks or not h.edge_masks:
            continue
        compared += 1
        lp = _lp(h)
        assert (witness.weights, witness.threshold) == (lp.weights, lp.threshold), h
    # the degenerate families are {} and {{}} on each of the six vertex counts
    assert (certified, compared) == (1622, 1610)


def test_fold_equals_the_lp_on_random_one_sperner_hypergraphs():
    compared = 0
    for n in range(1, 41):
        rng = random.Random(1000 + n)
        for _ in range(3 if n <= 20 else 1):
            h = random_one_sperner(n, rng)
            witness = threshold._gluing_threshold_witness(h, gluing_preorder(h))
            assert witness is not None and witness.verify(h), h
            if 0 in h.edge_masks or not h.edge_masks:
                continue
            compared += 1
            lp = _lp(h)
            assert (witness.weights, witness.threshold) == (lp.weights, lp.threshold), h
    assert compared >= 60

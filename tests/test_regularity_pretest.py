"""The regularity pre-test of ``threshold_witness`` against the definition
of regularity and against the LP, on every Sperner family over at most
five vertices."""

from sperner import threshold
from sperner.bitset import minimal_masks
from sperner.hypergraph import Hypergraph
from sperner.sweeps import antichain_bitmaps

from oracles import brute_is_regular


def sperner_families(max_n):
    for n in range(max_n + 1):
        for fam in antichain_bitmaps(n):
            yield Hypergraph.from_masks(range(n), [m for m in range(1 << n) if fam >> m & 1])


def test_pair_found_exactly_on_irregular_families_and_refutes_the_lp():
    families = found = 0
    for h in sperner_families(5):
        families += 1
        minimal = minimal_masks(h.edge_masks)
        pair = threshold._incomparable_pair(h, minimal)
        assert (pair is None) == brute_is_regular(h), h
        if pair is not None:
            found += 1
            assert pair.verify(h), h
            assert threshold._lp_threshold_witness(h, minimal) is None, h
            assert threshold.threshold_witness(h) is None, h
    # the Dedekind numbers 2 + 3 + 6 + 20 + 168 + 7581
    assert (families, found) == (7780, 4312)

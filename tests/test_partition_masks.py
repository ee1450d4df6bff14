"""M[a,b] partitions hold vertex masks: construction is the shape check and
``validate_m_partition(g, partition)`` the graph check.

The graph check is compared with the pairwise frozenset check of
``oracles.validate_m_partition_by_pairs`` on random five-part partitions
of seeded random graphs, for every (a, b), violating partitions included.
"""

import random

import pytest

from oracles import validate_m_partition_by_pairs
from sperner.bitset import bits
from sperner.decomposition import (DecompositionError, MPartition,
                                   validate_m_partition)
from sperner.generators import random_graph

AB = [(a, b) for a in (0, 1) for b in (0, 1)]


def random_parts(n: int, rng: random.Random) -> tuple[int, ...]:
    """z plus four parts over a random subset of 0..n-1, as masks."""
    z = rng.randrange(n)
    parts = [1 << z, 0, 0, 0, 0]
    for v in range(n):
        i = rng.randrange(6)            # part 5 leaves v out
        if v != z and 1 <= i <= 4:
            parts[i] |= 1 << v
    return tuple(parts)


def test_graph_check_matches_the_pairwise_check():
    rng = random.Random(1905)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(1, 8)
        g = random_graph(n, rng, rng.choice((0.2, 0.5, 0.8)))
        parts = random_parts(n, rng)
        sets = tuple(frozenset(bits(p)) for p in parts)
        for a, b in AB:
            got = validate_m_partition(g, MPartition(parts, a, b))
            assert got == validate_m_partition_by_pairs(g, sets, a, b), (g, parts, a, b)
            outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("parts, message", [
    ((1, 0, 6, 0, 2), "parts overlap"),
    ((0, 1, 0, 0, 0), "the first part must be the z-singleton"),
    ((3, 0, 0, 0, 0), "the first part must be the z-singleton"),
    ((1, 2, 4, 8), "an M-partition has exactly five parts"),
])
def test_construction_rejects_bad_shapes(parts, message):
    with pytest.raises(DecompositionError, match=message):
        MPartition(parts, 0, 1)


def test_z_is_the_bit_of_the_first_part():
    assert MPartition((1 << 7, 1, 2, 4, 8), 1, 1).z == 7

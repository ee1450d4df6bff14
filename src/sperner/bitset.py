"""Bitmask utilities shared by the hypergraph and graph modules.

Vertex sets are stored as Python ints (bit v set iff vertex position v is
in the set). All enumeration orders are fixed so that every caller is
deterministic.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(positions: Iterable[int]) -> int:
    m = 0
    for p in positions:
        m |= 1 << p
    return m


# maps the digits of bin() to the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_sum(values: Sequence[int], mask: int) -> int:
    """The sum of values[i] over the set bits i of ``mask`` (below
    len(values)). The reversed binary digits, as 0/1 bytes, select the
    values, so the loop runs in C; ``bits`` does O(n / word) big-integer
    work at every set bit of an n-bit mask."""
    return sum(compress(values, bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))


def popcount(mask: int) -> int:
    return mask.bit_count()


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks (deduplicated, sorted)."""
    keep: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        for k in keep:
            if k & m == k:
                break
        else:
            keep.append(m)
    return tuple(sorted(keep))


def containment_pair(masks: Sequence[int]) -> Optional[tuple[int, int]]:
    """Positions (i, j), i < j, of the first two masks one of which contains
    the other (equal masks included), or None for an antichain."""
    for i, a in enumerate(masks):
        for j, b in enumerate(masks[i + 1:], i + 1):
            if a & b in (a, b):
                return i, j
    return None


def min_difference_pair(masks: Sequence[int], lo: int, hi: int
                        ) -> Optional[tuple[int, int]]:
    """Positions (i, j), i < j, of the first two masks a, b whose min
    set-difference size lies outside [lo, hi], or None. The min of d =
    |a\\b| and e = |b\\a| is below lo iff d or e is, above hi iff both are."""
    for i, a in enumerate(masks):
        for j, b in enumerate(masks[i + 1:], i + 1):
            d = (a & ~b).bit_count()
            if d < lo:
                return i, j
            e = (b & ~a).bit_count()
            if e < lo or (d > hi and e > hi):
                return i, j
    return None


def iter_maximal_cliques(adj: list[int], n: int) -> Iterator[int]:
    """Yield every maximal clique of the graph given by adjacency masks.

    Bron-Kerbosch with pivoting, on an explicit stack of (R, P, X)
    frames, so clique size is limited by memory, not by the recursion
    limit. A frame's children depend only on the frame, so each is built
    when its parent is expanded. The pivot is the first vertex u of P | X,
    in bit order, with the largest |P & N(u)|, found by one loop of
    ``int.bit_count`` calls. The loop stops early at the largest value
    possible, |P| - 1 when X is empty (u is not its own neighbour) and |P|
    otherwise, which no later vertex can exceed. For ``n == 0`` the single
    maximal clique is the empty set.
    """
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        best = -1
        most = p.bit_count() - (not x)
        rest = p | x
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            k = (p & adj[u]).bit_count()
            if k > best:
                best, pivot = k, u
                if k == most:
                    break
            rest ^= b
        children = []
        rest = p & ~adj[pivot]
        while rest:
            b = rest & -rest
            a = adj[b.bit_length() - 1]
            children.append((r | b, p & a, x & a))
            p ^= b
            x |= b
            rest ^= b
        stack.extend(reversed(children))


def maximal_cliques(adj: list[int], n: int) -> list[int]:
    """All maximal cliques (see ``iter_maximal_cliques``), sorted by
    (size, mask)."""
    return sorted(iter_maximal_cliques(adj, n), key=lambda m: (popcount(m), m))


def connected_components(adj: list[int], vertices: int) -> list[int]:
    """Connected components (as masks) of the subgraph induced by ``vertices``."""
    comps = []
    rest = vertices
    while rest:
        b = rest & -rest
        comp = b
        frontier = b
        while frontier:
            grow = 0
            f = frontier
            while f:
                vb = f & -f
                v = vb.bit_length() - 1
                f ^= vb
                grow |= adj[v] & vertices & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps


def is_connected(adj: list[int], vertices: int) -> bool:
    """Whether the induced subgraph on ``vertices`` is connected (<=1 vertex: yes)."""
    if vertices == 0:
        return True
    return len(connected_components(adj, vertices)) == 1

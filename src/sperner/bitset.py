"""Bitmask utilities shared by the hypergraph and graph modules.

Vertex sets are stored as Python ints (bit v set iff vertex position v is
in the set). All enumeration orders are fixed so that every caller is
deterministic.
"""

from __future__ import annotations

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


def popcount(mask: int) -> int:
    return mask.bit_count()


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks (deduplicated, sorted)."""
    pool = sorted(set(masks), key=lambda m: (popcount(m), m))
    keep: list[int] = []
    for m in pool:
        if not any(k & m == k for k in keep):
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


def iter_maximal_cliques(adj: list[int], n: int) -> Iterator[int]:
    """Yield every maximal clique of the graph given by adjacency masks.

    Bron-Kerbosch with pivoting, on an explicit stack of (R, P, X)
    frames, so clique size is limited by memory, not by the recursion
    limit. A frame's children depend only on the frame, so each is built
    when its parent is expanded. For ``n == 0`` the single maximal clique
    is the empty set.
    """
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        # pivot: vertex of p|x maximizing |p & adj[u]|
        pivot = max(bits(p | x), key=lambda u: popcount(p & adj[u]))
        children = []
        for v in bits(p & ~adj[pivot]):
            b = 1 << v
            children.append((r | b, p & adj[v], x & adj[v]))
            p ^= b
            x |= b
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

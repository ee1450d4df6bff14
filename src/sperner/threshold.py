"""Threshold hypergraphs and k-asummability, with exact certificates.

A set X is dependent when it contains a hyperedge, independent otherwise.
A hypergraph is threshold when non-negative vertex weights w and a
threshold t exist with w(X) >= t exactly for the dependent X. It is
k-asummable when no k independent sets and k dependent sets have equal
characteristic-vector sums.

Thresholdness is decided by exact rational linear feasibility over the
inclusion-minimal hyperedges and the maximal independent sets; strict
inequalities are normalized to a gap of one, which is valid because any
separating pair (w, t) can be scaled. Returned witnesses are re-verified:
always against the two defining families, and additionally against all 2^n
subsets for n <= 20.

The 2-asummability test walks sum-vector profiles instead of pairs of
sets: a violating quadruple exists iff there are disjoint masks (I, d)
such that some split of d extends I to two dependent sets and some other
split extends it to two independent sets. That is O(4^n) with tiny
constants and yields a witness directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .bitset import bits
from .bitset import minimal_masks
from .hypergraph import Hypergraph, maximal_independent_masks
from .lp import solve_nonnegative_feasibility

ASUMMABILITY_CAP = 3


class ThresholdError(ValueError):
    """An unsupported request (beyond a cap) or a certificate that fails
    its own verification."""


def dependence_table(h: Hypergraph) -> bytearray:
    """dep[mask] = 1 iff the vertex set with that position-mask is dependent."""
    n = h.n
    table = bytearray(1 << n)
    for e in h.edge_masks:
        table[e] = 1
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit and table[mask ^ bit]:
                table[mask] = 1
    return table


def is_independent_set(h: Hypergraph, X: Iterable[int]) -> bool:
    """True iff X contains no hyperedge (the empty hyperedge is in every set)."""
    xm = h.mask_from_ids(X)
    return not any(e & xm == e for e in h.edge_masks)


def characteristic_vector(h: Hypergraph, X: Iterable[int]) -> tuple[int, ...]:
    """0/1 vector indexed by h.vertices with ones on the members of X."""
    xm = h.mask_from_ids(X)
    return tuple((xm >> i) & 1 for i in range(h.n))


@dataclass(frozen=True)
class AsummabilityWitness:
    """k independent and k dependent sets with equal characteristic sums."""
    independent: tuple[frozenset, ...]
    dependent: tuple[frozenset, ...]

    def verify(self, h: Hypergraph) -> bool:
        if len(self.independent) != len(self.dependent):
            return False
        for a in self.independent:
            if not is_independent_set(h, a):
                return False
        for b in self.dependent:
            if is_independent_set(h, b):
                return False
        sum_a = [0] * h.n
        sum_b = [0] * h.n
        for a in self.independent:
            for i, x in enumerate(characteristic_vector(h, a)):
                sum_a[i] += x
        for b in self.dependent:
            for i, x in enumerate(characteristic_vector(h, b)):
                sum_b[i] += x
        return sum_a == sum_b


def k_asummability_witness(h: Hypergraph, k: int,
                           cap: int = ASUMMABILITY_CAP) -> Optional[AsummabilityWitness]:
    """A violating witness for k-asummability, or None if h is k-asummable."""
    if k < 2:
        raise ThresholdError("k must be >= 2")
    if k > cap:
        raise ThresholdError(f"k-asummability beyond the cap {cap} is not supported")
    if h.n > 20:
        raise ThresholdError("asummability testing capped at 20 vertices")
    dep = dependence_table(h)
    if k == 2:
        found = _two_asummability_core(h.n, dep)
        if found is None:
            return None
        a1, a2, b1, b2 = found
        to_set = lambda m: frozenset(h.vertices[i] for i in bits(m))
        return AsummabilityWitness((to_set(a1), to_set(a2)), (to_set(b1), to_set(b2)))
    return _three_asummability_core(h, dep)


def is_k_asummable(h: Hypergraph, k: int, cap: int = ASUMMABILITY_CAP) -> bool:
    return k_asummability_witness(h, k, cap) is None


def _two_asummability_core(n: int, dep: bytearray):
    """Masks (a1, a2, b1, b2) with a's independent, b's dependent and
    a1|a2 multiset-equal b1|b2, or None.

    Profiles: I = common intersection, d = symmetric difference. For each
    disjoint (I, d) scan the splits T of d; a dependent split and an
    independent split of the same profile form a witness.
    """
    full = (1 << n) - 1
    for I in range(full + 1):
        if dep[I]:
            # every extension of a dependent intersection is dependent, so
            # no independent split can exist for this profile
            continue
        rest = full ^ I
        d = rest
        while d:
            dep_t = -1
            ind_t = -1
            t = d
            while True:
                x1 = I | t
                x2 = I | (d ^ t)
                if dep[x1]:
                    if dep_t < 0 and dep[x2]:
                        dep_t = t
                else:
                    if ind_t < 0 and not dep[x2]:
                        ind_t = t
                if dep_t >= 0 and ind_t >= 0:
                    return (I | ind_t, I | (d ^ ind_t), I | dep_t, I | (d ^ dep_t))
                if t == 0:
                    break
                t = (t - 1) & d
            d = (d - 1) & rest
    return None


def _three_asummability_core(h: Hypergraph, dep: bytearray) -> Optional[AsummabilityWitness]:
    """Witness search for k = 3 via sum-vector profiles with DFS splitting.

    The sum vector of three sets has entries 0..3; positions with value 3
    lie in all three sets, value-2 positions in exactly two, value-1 in
    exactly one. For each profile, assignments are enumerated by DFS; a
    partial set that is already dependent prunes the independent side.
    """
    n = h.n
    full = (1 << n) - 1
    to_set = lambda m: frozenset(h.vertices[i] for i in bits(m))
    for i3 in range(full + 1):
        rest3 = full ^ i3
        d2 = rest3
        while True:
            rest2 = rest3 ^ d2
            d1 = rest2
            while True:
                positions = list(bits(d2 | d1))
                dep_found = _assign_three(positions, d2, i3, dep, want_dependent=True)
                if dep_found is not None:
                    ind_found = _assign_three(positions, d2, i3, dep, want_dependent=False)
                    if ind_found is not None:
                        return AsummabilityWitness(
                            tuple(to_set(m) for m in ind_found),
                            tuple(to_set(m) for m in dep_found))
                if d1 == 0:
                    break
                d1 = (d1 - 1) & rest2
            if d2 == 0:
                break
            d2 = (d2 - 1) & rest3
    return None


def _assign_three(positions, d2: int, base: int, dep: bytearray, want_dependent: bool):
    """Assign each position to one set (value-1) or to two sets (value-2),
    so that all three resulting sets are dependent / independent."""
    if not want_dependent and dep[base]:
        return None
    sets = [base, base, base]

    def ok_final() -> bool:
        if want_dependent:
            return all(dep[s] for s in sets)
        return True

    def rec(idx: int):
        if idx == len(positions):
            return list(sets) if ok_final() else None
        p = positions[idx]
        bit = 1 << p
        if bit & d2:
            choices = ((0, 1), (0, 2), (1, 2))
        else:
            choices = ((0,), (1,), (2,))
        for ch in choices:
            for s in ch:
                sets[s] |= bit
            if want_dependent or all(not dep[sets[s]] for s in ch):
                r = rec(idx + 1)
                if r is not None:
                    return r
            for s in ch:
                sets[s] ^= bit
        return None

    return rec(0)


@dataclass(frozen=True)
class ThresholdWitness:
    """Non-negative weights (aligned with h.vertices) and threshold t with
    w(X) >= t exactly on the dependent sets."""
    weights: tuple[Fraction, ...]
    threshold: Fraction

    def weight_of(self, h: Hypergraph, X: Iterable[int]) -> Fraction:
        return sum((self.weights[h.position(v)] for v in X), Fraction(0))

    def verify(self, h: Hypergraph, exhaustive_limit: int = 20) -> bool:
        """Exact separation check.

        Family check (complete by monotonicity of non-negative weights):
        w(e) >= t on minimal hyperedges, w(S) < t on maximal independent
        sets, each set's integer-scaled weight summed directly. For
        n <= exhaustive_limit additionally checks all 2^n subsets, from a
        table of all 2^n subset sums.
        """
        if any(w < 0 for w in self.weights) or self.threshold < 0:
            return False
        n = h.n
        wint, tint = _integer_scaled(self.weights, self.threshold)
        for e in minimal_masks(h.edge_masks):
            if sum(wint[i] for i in bits(e)) < tint:
                return False
        for s in maximal_independent_masks(h):
            if sum(wint[i] for i in bits(s)) >= tint:
                return False
        if n <= exhaustive_limit:
            wsum = [0] * (1 << n)
            for mask in range(1, 1 << n):
                low = mask & -mask
                wsum[mask] = wsum[mask ^ low] + wint[low.bit_length() - 1]
            dep = dependence_table(h)
            for mask in range(1 << n):
                if (wsum[mask] >= tint) != bool(dep[mask]):
                    return False
        return True


def _integer_scaled(weights: tuple[Fraction, ...], t: Fraction) -> tuple[list[int], int]:
    """Scale (w, t) by the common denominator; separation is scale-invariant."""
    scale = lcm(t.denominator, *(w.denominator for w in weights)) if weights else t.denominator
    return [int(w * scale) for w in weights], int(t * scale)


def threshold_witness(h: Hypergraph) -> Optional[ThresholdWitness]:
    """A separating (w, t), or None when the hypergraph is not threshold.

    Degenerate conventions: with the empty hyperedge every set is
    dependent (w = 0, t = 0); with no hyperedges every set is independent
    (w = 0, t = 1).
    """
    n = h.n
    if 0 in h.edge_masks:
        return ThresholdWitness(tuple([Fraction(0)] * n), Fraction(0))
    if not h.edge_masks:
        return ThresholdWitness(tuple([Fraction(0)] * n), Fraction(1))
    rows: list[tuple[list[int], int]] = []
    for e in minimal_masks(h.edge_masks):
        coeff = [1 if e >> v & 1 else 0 for v in range(n)] + [-1]
        rows.append((coeff, 0))
    for s in maximal_independent_masks(h):
        coeff = [-1 if s >> v & 1 else 0 for v in range(n)] + [1]
        rows.append((coeff, 1))
    sol = solve_nonnegative_feasibility(rows, n + 1)
    if sol is None:
        return None
    witness = ThresholdWitness(tuple(sol[:n]), sol[n])
    if not witness.verify(h):
        raise ThresholdError("threshold witness failed its own verification")
    return witness


def is_threshold_hypergraph(h: Hypergraph) -> bool:
    return threshold_witness(h) is not None

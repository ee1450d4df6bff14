"""Threshold hypergraphs and k-asummability, with exact certificates.

A set X is dependent when it contains a hyperedge, independent otherwise.
A hypergraph is threshold when non-negative vertex weights w and a
threshold t exist with w(X) >= t exactly for the dependent X. It is
k-asummable when no k independent sets and k dependent sets have equal
characteristic-vector sums.

Thresholdness is decided in three steps (``threshold_certificate``). A
1-Sperner input gets an integer certificate folded bottom-up over its
gluing decomposition (the paper's induction, see
``_gluing_threshold_witness``), with no LP. A polynomial regularity
pre-test comes next: every threshold hypergraph is 2-asummable, hence
regular (any two vertices are comparable), so an incomparable vertex pair
refutes thresholdness with a verified 2-summability witness and no LP.
The remaining inputs, regular and not 1-Sperner, go on to exact rational
linear feasibility over the inclusion-minimal hyperedges and the maximal
independent sets; strict inequalities are normalized to a gap of one,
which is valid because any separating pair (w, t) can be scaled. Returned
certificates are re-verified: a separating (w, t) against the hyperedges
and the heaviest independent set, which for a 1-Sperner input is folded
along the gluing tree without dualization (see ``ThresholdWitness.verify``),
and additionally against all 2^n subsets for n <= EXHAUSTIVE_LIMIT (20).

The all-subsets check is word-parallel (``_separates_all_subsets``). The
2^n subset sums are lanes of one integer, c bytes per subset, with c the
least byte count whose lane holds 2^(8c - 1) > max(w(V), t). A sum is at
most w(V), so building the sums by n shift-add steps never carries out of
a lane; adding 2^(8c - 1) - t to every lane keeps each in (0, 2^(8c)), so
again nothing carries, and a lane's top bit is then set iff its sum is at
least t. Those bits are compared with the dependence table laid out in
the same lanes.

The 2-asummability test walks sum-vector profiles instead of pairs of
sets: a violating quadruple exists iff there are disjoint masks (I, d)
such that some split of d extends I to two dependent sets and some other
split extends it to two independent sets. That is O(4^n) with tiny
constants and yields a witness directly. It reads a 2^n dependence table,
built word-parallel (see ``dependence_table``), as does, in its lanes,
the all-subsets check.

``sperner hyp-check`` reads 2-asummability off the threshold step's
certificate instead (the proof is at ``cli.cmd_hyp_check``): a separating
(w, t) proves it, an incomparable pair's witness refutes it. Only regular
non-threshold inputs are searched, so the search and its 20-vertex cap
bind only there. ``is_k_asummable`` always searches: ``recognition`` and
the sweeps use it as an oracle independent of the LP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

from .bitset import bits, mask_sum, minimal_masks
from .hypergraph import (HLeaf, Hypergraph, fold_preorder, gluing_preorder,
                         maximal_independent_masks)
from .lp import solve_nonnegative_feasibility

ASUMMABILITY_CAP = 3
EXHAUSTIVE_LIMIT = 20


class ThresholdError(ValueError):
    """An unsupported request (beyond a cap) or a certificate that fails
    its own verification."""


def dependence_table(h: Hypergraph) -> bytearray:
    """dep[mask] = 1 iff the vertex set with that position-mask is dependent.

    Word-parallel: the table is one integer with a byte per subset, seeded
    with the hyperedges and closed upward by n shift-or-and steps, as in
    ``sweeps.dual_family_bitmap``: step b ors the table, shifted up by 2^b
    bytes, into the sets that contain vertex b. Bytes stay 0/1, so no step
    carries into a neighbour.
    """
    return _dependence_lanes(h, 1)


def _dependence_lanes(h: Hypergraph, c: int) -> bytearray:
    """``dependence_table`` laid out in lanes of c bytes: byte c * mask is
    dep[mask] and the other bytes are 0. The byte table is built as
    ``dependence_table`` describes and spread to the lanes by one slice
    assignment."""
    n = h.n
    size = 1 << n
    seed = bytearray(size)
    for e in h.edge_masks:
        seed[e] = 1
    table = int.from_bytes(seed, "little")
    for b in range(n):
        block = 1 << b
        has_b = int.from_bytes((bytes(block) + b"\x01" * block) * (size >> (b + 1)), "little")
        table |= (table << (8 * block)) & has_b
    lanes = bytearray(size * c)
    lanes[::c] = table.to_bytes(size, "little")
    return lanes


def is_independent_set(h: Hypergraph, X: Iterable[int]) -> bool:
    """True iff X contains no hyperedge (the empty hyperedge is in every set)."""
    xm = h.mask_from_ids(X)
    return not any(e & xm == e for e in h.edge_masks)


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
        # equal characteristic sums = equal multisets of members
        members = lambda sets: Counter(v for s in sets for v in s)
        return members(self.independent) == members(self.dependent)


def k_asummability_witness(h: Hypergraph, k: int) -> Optional[AsummabilityWitness]:
    """A verified violating witness for k-asummability, or None if h is
    k-asummable."""
    if k < 2:
        raise ThresholdError("k must be >= 2")
    if k > ASUMMABILITY_CAP:
        raise ThresholdError(f"k-asummability beyond the cap {ASUMMABILITY_CAP} is not supported")
    if h.n > 20:
        raise ThresholdError("asummability testing capped at 20 vertices")
    dep = dependence_table(h)
    if k == 2:
        found = _two_asummability_core(h.n, dep)
        if found is None:
            return None
        a1, a2, b1, b2 = found
        witness = AsummabilityWitness((h.edge_set(a1), h.edge_set(a2)),
                                      (h.edge_set(b1), h.edge_set(b2)))
    else:
        witness = _three_asummability_core(h, dep)
    if witness is not None and not witness.verify(h):
        raise ThresholdError("asummability witness failed its own verification")
    return witness


def is_k_asummable(h: Hypergraph, k: int) -> bool:
    return k_asummability_witness(h, k) is None


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

    def verify(self, h: Hypergraph) -> bool:
        """Exact separation check.

        The weights are first scaled to integers by their common
        denominator (a positive scale keeps signs and separation).

        Family check, complete because non-negative weights are monotone:
        w(e) >= t on every hyperedge, and w(S) < t for the heaviest
        independent set S. For a 1-Sperner input the heaviest independent
        weight is folded along a gluing tree that ``verify`` builds itself
        (``_heaviest_independent_on_tree``), with no dualization; any other
        input is read over its maximal independent sets.

        For n <= EXHAUSTIVE_LIMIT it additionally checks all 2^n subsets
        word-parallel (``_separates_all_subsets``): subset X's sum is lane
        X of one integer, c bytes wide with 2^(8c - 1) above both W = w(V)
        and t, so a sum, and a sum plus 2^(8c - 1) - t, never carries into
        the next lane; the top bit of each lane then reads w(X) >= t.
        """
        wint, tint = _integer_scaled(self.weights, self.threshold)
        if tint < 0 or any(w < 0 for w in wint):
            return False
        if any(mask_sum(wint, e) < tint for e in h.edge_masks):
            return False
        order = gluing_preorder(h)
        if order is None:
            heaviest = _heaviest_independent_by_duals(h, wint)
        else:
            heaviest = _heaviest_independent_on_tree(h, order, wint)
        if heaviest is not None and heaviest >= tint:
            return False
        return h.n > EXHAUSTIVE_LIMIT or _separates_all_subsets(h, wint, tint)


def _heaviest_independent_by_duals(h: Hypergraph, wint: list[int]) -> Optional[int]:
    """The largest w(S) over the maximal independent sets S of h, or None
    when every set is dependent (h has the empty hyperedge)."""
    return max((mask_sum(wint, s) for s in maximal_independent_masks(h)),
               default=None)


def _heaviest_independent_on_tree(h: Hypergraph, order: list, wint: list[int]) -> Optional[int]:
    """The largest w(X) over the independent sets X of h, or None when
    every set is dependent, folded over the gluing tree ``order`` of h
    (a ``gluing_preorder``) in O(n) big-integer steps.

    Let H = glue(H1, H2, z) on V1 + V2 + {z}, with W1, W2 the weights of
    V1, V2, mu1 the least weight on V1 and A(Hi) the heaviest independent
    weight of Hi (0 for the leaf with no hyperedge; undefined for the leaf
    {{}}, and terms that use an undefined A are skipped). Hyperedges of H
    are {z} + e and V1 + f, so X is independent iff not (z in X and X & V1
    dependent in H1) and not (V1 inside X and X & V2 dependent in H2).
    Hence, by whether z is in X and whether X & V1 is all of V1:

    * z not in X, X & V1 = V1: X & V2 independent in H2, W1 + A(H2);
    * z not in X, X & V1 short of V1 (V1 nonempty): X & V2 is free, and
      the heaviest such X drops the lightest vertex of V1, W1 - mu1 + W2;
    * z in X, H1 with no hyperedge: nothing more is asked of X, so w(z)
      plus each of the two terms above;
    * z in X, H1 with a hyperedge: X & V1 independent in H1, so short of
      the dependent V1, and X & V2 is free, w(z) + A(H1) + W2.

    A(H) is the largest of the terms that apply. Each bound is attained
    by the set described, so the fold is exact.
    """
    def leaf(x: HLeaf):             # (A, W, mu, has a hyperedge)
        has = bool(x.base.edge_masks)
        return None if has else 0, 0, None, has

    def node(z: int, left, right):
        (a1, w1, mu1, has1), (a2, w2, mu2, has2) = left, right
        wz = wint[h.position(z)]
        terms = [t for t in (None if a2 is None else w1 + a2,
                             None if mu1 is None else w1 - mu1 + w2) if t is not None]
        if not has1:
            # w(z) >= 0, so with z free the heaviest X takes it
            terms = [wz + t for t in terms]
        elif a1 is not None:
            terms.append(wz + a1 + w2)
        mu = min(m for m in (mu1, mu2, wz) if m is not None)
        return max(terms, default=None), w1 + w2 + wz, mu, has1 or has2

    return fold_preorder(order, leaf, node)[0]


def _separates_all_subsets(h: Hypergraph, wint: list[int], tint: int) -> bool:
    """w(X) >= t exactly on the dependent X, over all 2^n subsets, for
    non-negative integers w and t, with the 2^n subset sums as lanes of
    one integer.

    Lane layout: subset X (a position mask) owns lane X, bits L X to
    L X + L - 1 of the integer S, where L = 8c and c is the least byte
    count with 8c > bit_length(max(W, t)), W = w(V). So W < 2^(L-1) and
    t < 2^(L-1).

    * Sums. S starts as one lane holding 0. After step k it holds the
      2^(k+1) sums over positions 0..k: S |= (S + w_k ONES) << 2^k L,
      where ONES has a 1 in each of the 2^k lanes. The new upper lanes
      are the old ones plus w_k, and every lane stays at most W, below
      2^(L-1), so no addition carries into the next lane.
    * Flags. Adding 2^(L-1) - t to every lane gives w(X) - t + 2^(L-1),
      which lies in (0, 2^L) because 0 <= w(X), t < 2^(L-1): again no
      carry, and the lane's top bit is set iff w(X) >= t. Shifting right
      by L - 1 and masking with ONES leaves that bit at each lane's bottom.
    * The flags must equal the dependence table in the same lanes
      (``_dependence_lanes``).

    Lane constants (a value repeated in every lane) are built from bytes;
    no big-integer multiplication or division runs.
    """
    c = max(sum(wint), tint).bit_length() // 8 + 1
    top = 8 * c - 1

    def repeated(value: int, lanes: int) -> int:
        return int.from_bytes(value.to_bytes(c, "little") * lanes, "little")

    sums = 0
    for k, w in enumerate(wint):
        sums |= (sums + repeated(w, 1 << k)) << (8 * c << k)
    size = 1 << h.n
    flags = ((sums + repeated((1 << top) - tint, size)) >> top) & repeated(1, size)
    return flags == int.from_bytes(_dependence_lanes(h, c), "little")


def _integer_scaled(weights: tuple[Fraction, ...], t: Fraction) -> tuple[list[int], int]:
    """Scale (w, t) by the common denominator; separation is scale-invariant.
    Each value is its numerator times scale // denominator, so with every
    denominator 1 (the gluing fold's integers) these are the numerators."""
    scale = lcm(t.denominator, *(w.denominator for w in weights))
    return ([w.numerator * (scale // w.denominator) for w in weights],
            t.numerator * (scale // t.denominator))


def threshold_certificate(h: Hypergraph) -> Union[ThresholdWitness, AsummabilityWitness, None]:
    """What the threshold step proves about h, verified: a separating
    (w, t) when h is threshold, the 2-summability witness of an
    incomparable vertex pair when h is irregular (hence not threshold), or
    None when h is regular and the LP is infeasible.

    Degenerate conventions: with the empty hyperedge every set is
    dependent (w = 0, t = 0); with no hyperedges every set is independent
    (w = 0, t = 1).

    A 1-Sperner input is threshold (the paper's theorem), and
    ``_gluing_threshold_witness`` builds its certificate from the gluing
    decomposition. Since 1-Sperner implies threshold implies regular, this
    step comes before the pre-test, and the LP sees no 1-Sperner input.

    Regularity pre-test. Vertex i dominates j (i >= j) when X + j
    dependent implies X + i dependent for every X avoiding i and j. A
    threshold hypergraph is regular: any two vertices are comparable. For
    if i fails to dominate j through X and j fails to dominate i through
    Y, the dependent {X + j, Y + i} and the independent {X + i, Y + j}
    have equal characteristic sums, so h is not 2-asummable, and a
    threshold (w, t) would weigh those sums at least 2t and below 2t.
    ``_incomparable_pair`` looks for such a pair in polynomial time and
    returns that witness; only regular inputs reach the LP.

    The step starts from two scans of h, its gluing preorder and, when h
    is not 1-Sperner, its minimal hyperedges; ``threshold_certificate_from``
    takes them from a caller that has made them already.
    """
    order = gluing_preorder(h)
    return threshold_certificate_from(
        h, order, minimal_masks(h.edge_masks) if order is None else None)


def threshold_certificate_from(h: Hypergraph, order: Optional[list],
                               minimal: Optional[tuple[int, ...]]
                               ) -> Union[ThresholdWitness, AsummabilityWitness, None]:
    """``threshold_certificate`` of h, given ``order``, the
    ``gluing_preorder`` of h (None when h is not 1-Sperner), and, when
    ``order`` is None, ``minimal``, the ``minimal_masks`` of its
    hyperedges. The certificate is verified as there; ``verify`` builds
    its own gluing tree and does not trust ``order``."""
    n = h.n
    if 0 in h.edge_masks:
        return ThresholdWitness(tuple([Fraction(0)] * n), Fraction(0))
    if not h.edge_masks:
        return ThresholdWitness(tuple([Fraction(0)] * n), Fraction(1))
    if order is not None:
        return _verified(_gluing_threshold_witness(h, order), h)
    pair = _incomparable_pair(h, minimal)
    if pair is not None:
        if not pair.verify(h):
            raise ThresholdError("incomparable-pair witness failed its own verification")
        return pair
    return _lp_threshold_witness(h, minimal)


def threshold_witness(h: Hypergraph) -> Optional[ThresholdWitness]:
    """A verified separating (w, t), or None when the hypergraph is not
    threshold; see ``threshold_certificate``."""
    cert = threshold_certificate(h)
    return cert if isinstance(cert, ThresholdWitness) else None


def _verified(witness: ThresholdWitness, h: Hypergraph) -> ThresholdWitness:
    if not witness.verify(h):
        raise ThresholdError("threshold witness failed its own verification")
    return witness


def _gluing_threshold_witness(h: Hypergraph, order: Optional[list]
                              ) -> Optional[ThresholdWitness]:
    """An integer (w, t) folded over the gluing decomposition ``order`` of
    h (a ``gluing_preorder``), or None when ``order`` is None, that is
    when h is not 1-Sperner. Not verified here.

    Let H = glue(H1, H2, z), with (w1, t1) separating H1 on V1 and
    (w2, t2) separating H2 on V2, all non-negative integers, and W2 =
    w2(V2). The hyperedges of H are {z} + e and V1 + f, so a set X is
    dependent in H iff z is in X and X & V1 is dependent in H1, or V1 is
    inside X and X & V2 is dependent in H2. Leaves have no vertices:
    t = 1 for no hyperedge, t = 0 for {{}}.

    If H1 has no hyperedge, no hyperedge holds z and V1 is empty (it is
    U_z), so H is H2 plus the isolated z: w(z) = 0 and (w2, t2) stand.

    Otherwise let Z be the number of zero weights of w1, K = Z + 1 and
    u = K w1 + [w1 = 0] on V1, so u is positive. u separates H1 at K t1
    with a gap of one: a dependent X1 has u(X1) >= K t1, an independent
    one u(X1) <= K (t1 - 1) + Z = K t1 - 1. Let U1 = u(V1), which is at
    least K t1 because V1 holds a hyperedge, and A = W2 + 1 > W2. Put
    w = A u on V1, w2 on V2, w(z) = A (U1 - K t1) + t2 >= 0 and
    t = A U1 + t2. Then for X with X1 = X & V1, X2 = X & V2:

    * z in X, X1 dependent: w(X) >= A K t1 + A (U1 - K t1) + t2 = t.
    * z in X, X1 independent: w(X) <= A (U1 - 1) + t2 + W2 < t.
    * z not in X, X1 = V1: w(X) = A U1 + w2(X2), at least t iff X2 is
      dependent in H2.
    * z not in X, X1 short of V1: u is positive, so
      w(X) <= A (U1 - 1) + W2 < A U1 <= t.

    This is exactly the dependence rule of H. Every node rescales its left
    part once, so the fold costs O(n * depth) big-integer operations.
    """
    if order is None:
        return None
    w = [0] * h.n

    def leaf(x: HLeaf):             # (vertex mask, t, W) of a folded subtree
        return 0, 0 if x.base.edge_masks else 1, 0

    def node(z: int, left, right):
        (v1, t1, _), (v2, t2, w2) = left, right
        p = h.position(z)
        if not v1 and t1:
            return v2 | 1 << p, t2, w2
        vs = list(bits(v1))
        k = 1 + sum(1 for i in vs if not w[i])
        a = w2 + 1
        u1 = 0
        for i in vs:
            ui = k * w[i] or 1
            u1 += ui
            w[i] = a * ui
        w[p] = a * (u1 - k * t1) + t2
        return v1 | v2 | 1 << p, a * u1 + t2, a * u1 + w[p] + w2

    t = fold_preorder(order, leaf, node)[1]
    return ThresholdWitness(tuple(map(Fraction, w)), Fraction(t))


def _incomparable_pair(h: Hypergraph, minimal: tuple[int, ...]) -> Optional[AsummabilityWitness]:
    """The 2-summability witness of a pair of incomparable vertices, or
    None when h is regular.

    On the minimal hyperedges: i fails to dominate j iff some minimal e
    has j in e, i not in e, and e - j + i independent (take X = e - j; a
    dependent X + j contains such an e). A minimal f inside e - j + i
    must contain i, since the minimal hyperedges form an antichain, so
    the test is whether some f - i lies inside e - j. O(n^2 m^2) at worst.
    """
    links = [[e ^ (1 << v) for e in minimal if e >> v & 1] for v in range(h.n)]

    def undominated(i: int, j: int) -> Optional[int]:
        """e - j for a minimal e that shows i fails to dominate j, or None."""
        bi = 1 << i
        for a in links[j]:
            if not a & bi and not any(b | a == a for b in links[i]):
                return a
        return None

    for i in range(h.n):
        for j in range(i + 1, h.n):
            a = undominated(i, j)
            if a is None:
                continue
            b = undominated(j, i)
            if b is None:
                continue
            bi, bj = 1 << i, 1 << j
            return AsummabilityWitness((h.edge_set(a | bi), h.edge_set(b | bj)),
                                       (h.edge_set(a | bj), h.edge_set(b | bi)))
    return None


def _lp_threshold_witness(h: Hypergraph, minimal: tuple[int, ...]) -> Optional[ThresholdWitness]:
    """The LP half of ``threshold_witness``: a verified (w, t) from exact
    feasibility over the minimal hyperedges and the maximal independent
    sets, or None when that system is infeasible."""
    n = h.n
    rows: list[tuple[list[int], int]] = []
    for e in minimal:
        coeff = [1 if e >> v & 1 else 0 for v in range(n)] + [-1]
        rows.append((coeff, 0))
    for s in maximal_independent_masks(h):
        coeff = [-1 if s >> v & 1 else 0 for v in range(n)] + [1]
        rows.append((coeff, 1))
    sol = solve_nonnegative_feasibility(rows, n + 1)
    if sol is None:
        return None
    return _verified(ThresholdWitness(tuple(sol[:n]), sol[n]), h)


def is_threshold_hypergraph(h: Hypergraph) -> bool:
    return threshold_witness(h) is not None

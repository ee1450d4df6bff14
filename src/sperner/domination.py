"""Exact solvers for dominating, total dominating, and connected dominating
sets.

Routes:

* ``brute_force`` scans vertex subsets in increasing size (desk-scale
  oracle; also establishes infeasibility, which happens exactly for total
  domination with an isolated vertex and connected domination of a
  disconnected graph).
* ``dp_dominating_set`` runs a label-state dynamic program over a
  k-expression: per subtree and label class it tracks whether the class
  contains a chosen vertex and whether all its vertices are dominated so
  far; add-edges updates domination flags, relabel merges classes, union
  convolves tables. Exact with at most 4^k states per node. It is the
  general k-expression solver, which the sweeps check against brute force;
  the H-free split pipeline does not use it.
* ``split_reduce`` derives the total/connected answers from a minimum
  dominating set on a connected split graph: a minimum dominating set
  inside the clique side always exists, it is connected, and it is total
  unless it has size one (then its smallest neighbor joins it; this one
  variant rule is ``_total_witness``).
* ``solve_h_free_split_all`` is the full pipeline for H-free split
  graphs, one pass for all three variants: per component, a minimum
  dominating set inside the clique side is a minimum cover of the
  1-Sperner hypergraph of clique-side neighborhoods, found along one path
  of its gluing decomposition (``_component_kside``, ``_min_cover``); the
  variants follow by the same rule, and each answer gets one check
  against g. Membership costs a degree-sequence split test (Hammer and
  Simeone) and an O(|K|^2) pair test: H has a single split partition
  (middles in K, ends in I), so g has an induced H iff two clique
  vertices have independent-side neighborhoods differing by >= 2 both
  ways, whichever split partition of g is used.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .bitset import bits, is_connected, mask_of, popcount
from .cliquewidth import (LEAF, REL, UNION, KExpression, evaluate, max_label,
                          postfix)
from .decomposition import labeled_h_witness, pattern_witness
# find_induced is not called here; it stays bound because perfbench's
# tracer test expects this module among the aliases it rebinds
from .graphs import (Graph, LabeledSplitGraph, find_induced,  # noqa: F401
                     find_split_partition)
from .hypergraph import gluing_split

VARIANTS = ("dominating", "total", "connected")


class DominationError(ValueError):
    pass


class OutOfClassError(DominationError):
    """The input lies outside the class a pipeline solves; ``dominate``
    with method ``auto`` answers it by brute force instead."""


@dataclass(frozen=True)
class DominationResult:
    variant: str
    size: Optional[int]
    witness: Optional[frozenset]
    infeasible: bool = False

    def __post_init__(self):
        if not self.infeasible and self.size != len(self.witness or ()):
            raise DominationError("size must match the witness")


def is_dominating(g: Graph, dset, variant: str = "dominating") -> bool:
    full = (1 << g.n) - 1
    if variant == "dominating":
        cover = 0
        for v in dset:
            cover |= g.adj[v] | (1 << v)
        return cover == full
    if variant == "total":
        cover = 0
        for v in dset:
            cover |= g.adj[v]
        return cover == full
    if variant == "connected":
        return (is_dominating(g, dset, "dominating")
                and is_connected(list(g.adj), mask_of(dset)))
    raise DominationError(f"unknown variant {variant!r}")


def brute_force(g: Graph, variant: str, cap: int = 20) -> DominationResult:
    """Exact minimum by subset enumeration in increasing size.

    Total domination is infeasible iff the graph has an isolated vertex;
    connected domination iff the graph is disconnected.
    """
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    if g.n > cap:
        raise DominationError(f"brute force capped at {cap} vertices")
    if variant == "total" and any(g.adj[v] == 0 for v in range(g.n)):
        return DominationResult(variant, None, None, infeasible=True)
    if variant == "connected" and not g.is_connected():
        return DominationResult(variant, None, None, infeasible=True)
    for size in range(g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            if is_dominating(g, comb, variant):
                return DominationResult(variant, size, frozenset(comb))
    raise DominationError("feasible variant found no dominating set")


# ---------------------------------------------------------------------------
# Dynamic program over k-expressions
# ---------------------------------------------------------------------------

def dp_dominating_set(e: KExpression) -> DominationResult:
    """Minimum dominating set of the graph a k-expression evaluates to.

    State per subtree: the label classes holding a selected vertex and the
    label classes not yet wholly dominated (empty classes count as
    dominated). Values are (size, witness), least first under
    ``_before``, so the result is deterministic.
    """
    value = evaluate(e)  # validates the expression
    k = max(1, max_label(e))
    full = (1 << k) - 1
    by_rank, nat = _witness_order(value.vertices)
    best = None
    for key, (n, w) in _dp(postfix(e), k, by_rank, nat).items():
        if not key & full and (best is None or n < best[0]
                               or n == best[0] and _before(w, best[1], nat)):
            best = (n, w)
    # the witness is checked on the evaluated position masks: its closed
    # neighborhoods must cover every position
    witness = frozenset(() if best is None else (by_rank[r] for r in bits(best[1])))
    place = {v: p for p, v in enumerate(value.positions)}
    cover = 0
    for v in witness:
        p = place[v]
        cover |= value.adj[p] | 1 << p
    if cover != (1 << len(place)) - 1:
        raise DominationError("dominating set DP found no verified witness")
    return DominationResult("dominating", best[0], witness)


def _witness_order(vertices) -> tuple[list, list]:
    """The vertices in ``str`` order (bit r of a witness mask is the r-th)
    and, per bit, the place of its vertex in ``vertices``, which
    ``evaluate`` sorts ints first, then strs."""
    place = {v: i for i, v in enumerate(vertices)}
    by_rank = sorted(vertices, key=str)
    return by_rank, [place[v] for v in by_rank]


def _before(w: int, cw: int, nat: list) -> bool:
    """Whether witness mask ``w`` precedes ``cw`` of the same size: as
    tuples sorted by ``str``, compared element by element in the order of
    ``nat``. The tuples agree up to the lowest bit x where the masks
    differ; there one holds x and the other its next bit above x."""
    d = w ^ cw
    if not d:
        return False
    low = d & -d
    if w & low:
        o = cw & -low
        return nat[low.bit_length() - 1] < nat[(o & -o).bit_length() - 1]
    o = w & -low
    return nat[(o & -o).bit_length() - 1] < nat[low.bit_length() - 1]


@functools.lru_cache(maxsize=256)
def _chain_map(k: int, ops: tuple) -> dict:
    """The key map of a chain of unary ops, shared by every DP run; it is
    filled by ``_apply_chain`` with the keys the runs reach, so it never
    holds all 4^k."""
    return {}


def _chain_key(key: int, ops: tuple, k: int) -> int:
    """``key`` after the chain ``ops``, innermost first. A relabel moves
    the source bit onto the target in both halves: the target class holds
    a selected vertex iff either did, is dominated iff both were, and the
    emptied source is dominated. Add-edges marks dominated the classes
    joined to a class with a selected vertex."""
    for code, a, b in ops:
        if code == REL:
            moved = key & (1 << (a - 1) | 1 << (a - 1 + k))
            key = key ^ moved | moved >> (a - 1) << (b - 1)
        else:
            sel = key >> k
            if sel >> (a - 1) & 1:
                key &= ~(1 << (b - 1))
            if sel >> (b - 1) & 1:
                key &= ~(1 << (a - 1))
    return key


def _apply_chain(table: dict, k: int, ops: tuple, nat: list) -> dict:
    m = _chain_map(k, ops)
    out: dict = {}
    for key, val in table.items():
        nk = m.get(key)
        if nk is None:
            nk = m[key] = _chain_key(key, ops, k)
        cur = out.get(nk)
        if cur is None or val[0] < cur[0] or val[0] == cur[0] and _before(val[1], cur[1], nat):
            out[nk] = val
    return out


def _dp(ops: list, k: int, by_rank: list, nat: list) -> dict:
    """The state table of the expression whose postfix op list
    (``cliquewidth.postfix``) is ``ops``: key ``sel << k | undom`` ->
    (size, witness mask), where ``sel`` holds the label classes with a
    selected vertex and ``undom`` those not yet wholly dominated, and bit
    r of the mask is ``by_rank[r]``.

    Built in one pass over ``ops`` with one table per pending operand. A
    union ORs the keys of every pair of entries, adds the sizes and ORs
    the masks (the two sides' vertices are disjoint). The maximal chain
    of relabel/add-edges ops above an operand is applied as one key map
    (``_chain_key``), keeping the least value per key once at its end.
    That is exact: unary ops act on keys only and union on keys, sizes
    and masks entry by entry, so each key's value is the least over the
    entries mapped to it, and the least of the least values per
    intermediate key is the least overall (``_before`` orders the
    witnesses of one size totally).
    """
    bit = {v: 1 << r for r, v in enumerate(by_rank)}
    tables = []
    chain = []      # the unary ops pending above tables[-1], innermost first
    for op in ops:
        code = op[0]
        if code != LEAF and code != UNION:
            chain.append(op)
            continue
        if chain:
            tables.append(_apply_chain(tables.pop(), k, tuple(chain), nat))
            chain.clear()
        if code == LEAF:
            b = 1 << (op[1] - 1)
            # selected: its class is dominated; skipped: it is not
            tables.append({b << k: (1, bit[op[2]]), b: (0, 0)})
            continue
        right = list(tables.pop().items())
        out: dict = {}
        for k1, (n1, w1) in tables.pop().items():
            for k2, (n2, w2) in right:
                key = k1 | k2
                n = n1 + n2
                cur = out.get(key)
                if cur is None or n < cur[0] or n == cur[0] and _before(w1 | w2, cur[1], nat):
                    out[key] = (n, w1 | w2)
        tables.append(out)
    if chain:
        tables.append(_apply_chain(tables.pop(), k, tuple(chain), nat))
    return tables[0]


# ---------------------------------------------------------------------------
# Split-graph reductions
# ---------------------------------------------------------------------------

def _kside_minimum_dominating(g: Graph, K: frozenset, I: frozenset,
                              res: DominationResult) -> frozenset:
    """Move a minimum dominating set ``res`` of a connected split graph
    inside K.

    Each independent-side member is swapped for one of its clique-side
    neighbors, which preserves domination because K is a clique.
    """
    witness = set(res.witness)
    for v in sorted(witness):
        if v in I:
            repl = min(u for u in bits(g.adj[v]) if u in K)
            witness.discard(v)
            witness.add(repl)
    return frozenset(witness)


def _total_witness(g: Graph, dstar: frozenset) -> frozenset:
    """The one variant rule: a clique-side minimum dominating set of a
    connected split graph is connected, and total unless it is a single
    vertex, which then takes its smallest neighbor (gamma_t = max(gamma, 2))."""
    if len(dstar) != 1:
        return dstar
    (u,) = dstar
    return dstar | {min(bits(g.adj[u]))}


def _verified(g: Graph, variant: str, witness: frozenset) -> DominationResult:
    if not is_dominating(g, witness, variant):
        raise DominationError(f"{variant} witness fails verification")
    return DominationResult(variant, len(witness), witness)


def split_reduce(g: Graph, variant: str) -> DominationResult:
    """Total/connected domination on a connected split graph from a minimum
    dominating set (by ``brute_force``) moved into the clique side:
    gamma_c = gamma always, gamma_t = max(gamma, 2)."""
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    part = find_split_partition(g)
    if part is None:
        raise DominationError("graph is not split")
    if g.n < 2 or not g.is_connected():
        raise DominationError("split reductions need a connected graph, n >= 2")
    dstar = _kside_minimum_dominating(g, *part, brute_force(g, "dominating"))
    return _verified(g, variant, _total_witness(g, dstar) if variant == "total" else dstar)


# ---------------------------------------------------------------------------
# The H-free split pipeline
# ---------------------------------------------------------------------------

def solve_h_free_split(g: Graph, variant: str) -> DominationResult:
    """One variant's entry of ``solve_h_free_split_all(g)``."""
    if variant not in VARIANTS:
        raise DominationError(f"unknown variant {variant!r}")
    return solve_h_free_split_all(g)[VARIANTS.index(variant)]


def solve_h_free_split_all(g: Graph) -> tuple[DominationResult, ...]:
    """Exact domination for H-free split graphs: all three variants, in
    ``VARIANTS`` order, from one minimum dominating set inside the clique
    side per component (``_component_kside``). Their union is the
    dominating answer and, when g is connected, the connected one;
    ``_total_witness`` per component gives the total one. Total domination
    is infeasible iff some component is a single vertex. Each answer is
    checked against g. H-freeness is the pair test (see the module
    docstring); the 6-vertex search only runs to report an H. An input
    that is not split, or holds an H, raises ``OutOfClassError``.
    """
    part = find_split_partition(g)
    if part is None:
        raise OutOfClassError("graph is not split")
    w = pattern_witness(LabeledSplitGraph(g, *part), labeled_h_witness, "H")
    if w is not None:
        raise OutOfClassError(f"graph contains an induced H: {w}")
    # a split partition of g restricted to a component is one of the component
    imask = mask_of(part[1])
    comps = g.components()
    dstars = [frozenset(bits(c)) if popcount(c) == 1 else _component_kside(g, c, imask)
              for c in comps]
    dominating = _verified(g, "dominating", frozenset().union(*dstars))
    if any(popcount(c) == 1 for c in comps):
        total = DominationResult("total", None, None, infeasible=True)
    else:
        total = _verified(g, "total", frozenset().union(
            *(_total_witness(g, d) for d in dstars)))
    if len(comps) > 1:
        connected = DominationResult("connected", None, None, infeasible=True)
    else:
        connected = _verified(g, "connected", dominating.witness)
    return dominating, total, connected


def _component_kside(g: Graph, comp: int, imask: int) -> frozenset:
    """A minimum dominating set of component ``comp`` (two or more
    vertices) of an H-free split graph g inside its clique side, where
    ``imask`` is the independent side of a split partition (K, I) of g.

    Reduction. Let G be the component, connected, split with partition
    (K, I) and n >= 2. Some minimum dominating set lies in K: an I vertex
    of a dominating set may be swapped for any of its neighbors, all in K,
    which dominates K (a clique) and the swapped vertex, and so everything
    the latter did. A nonempty D inside K dominates G iff the union of
    N(d) & I over d in D is I. So gamma(G) = max(1, rho(H_K)), where H_K is
    the hypergraph on I whose hyperedges are the neighborhoods N(k) & I
    and rho the fewest hyperedges whose union is the vertex set. Equal
    neighborhoods keep one representative, the lowest id, and one strictly
    inside another drops, which leaves rho as it is (a cover may swap it
    for the larger one). H-freeness makes the kept family 1-Sperner: by the
    pair test no two neighborhoods differ by two or more both ways, and
    none contains another. Every vertex of I lies in a kept hyperedge,
    because G is connected. ``_min_cover`` gives rho(H_K) and a cover; an
    empty I (G a clique) takes the one kept representative, the lowest
    vertex.
    """
    by_hood: dict[int, int] = {}
    for v in bits(comp & ~imask):
        by_hood.setdefault(g.adj[v] & imask, v)
    masks = []
    reps = []
    for hood, v in by_hood.items():
        if not any(hood != h2 and hood & h2 == hood for h2 in by_hood):
            masks.append(hood)
            reps.append(v)
    return frozenset(_min_cover(comp & imask, masks, reps) or reps[:1])


def _min_cover(vm: int, masks: list, reps: list) -> list:
    """The representatives (``reps[i]`` stands for ``masks[i]``) of a
    minimum family of hyperedges whose union is ``vm``, for a 1-Sperner
    hypergraph whose every vertex lies in a hyperedge.

    Theorem. Let H = glue(H1, H2, z) be such a hypergraph, with hyperedges
    {z} + e for e in E1 and V1 + f for f in E2, split as ``gluing_split``
    does (V1 = U_z), so every vertex of each part lies in a hyperedge of
    that part: V1 is the union of E1, and a vertex of V2 lies in some
    hyperedge avoiding z, whose part in V2 is an f. Some {z} + e exists,
    since z lies in a hyperedge.
    1. If V2 is not empty, rho(H) = 1 + rho(H2). Only the V1 + f meet V2,
       and they cover V2 iff their f cover H2, so a cover needs rho(H2)
       of them, and one {z} + e for z, which they miss. Conversely a
       minimum cover of H2, lifted, covers V1 + V2, and one {z} + e adds z.
    2. Otherwise, rho(H) = 1 when V1 is in E1 (V1 empty included, as E1
       is then {{}}): {z} + V1 is the vertex set. E1 is then {V1}, as
       {z} + V1 contains every other {z} + e and H is Sperner.
    3. Otherwise, rho(H) = 2 when E2 is not empty, that is {{}}: V1 + {}
       and any {z} + e cover, and no single hyperedge does, as {z} + e
       misses V1 \\ e and V1 misses z.
    4. Otherwise every hyperedge holds z, and rho(H) = rho(H1): drop z.
    So the cover follows one root-to-leaf path of the gluing
    decomposition, at O(m) mask operations per candidate z, and takes the
    first {z} + e in list order where rules 1 and 3 leave a choice. A level
    without a gluing vertex contradicts 1-Spernerness, which the caller
    decided, and raises ``DominationError``.
    """
    cover = []
    while vm:
        split = gluing_split(vm, masks)
        if split is None:
            raise DominationError("the clique-side hypergraph has no gluing vertex")
        zb, (u, e1, e2) = split
        r1 = [r for e, r in zip(masks, reps) if e & zb]
        r2 = [r for e, r in zip(masks, reps) if not e & zb]
        v2 = vm & ~u & ~zb
        if v2:
            cover.append(r1[0])
            vm, masks, reps = v2, e2, r2
        elif e1 == [u]:
            return cover + r1
        elif e2:
            return cover + r1[:1] + r2
        else:
            vm, masks, reps = u, e1, r1
    return cover

"""Verification sweeps: the property suites behind the acceptance tests
and the ``sperner sweep`` command.

Every sweep is deterministic given its seed and caps, records both in its
report, and returns the full list of disagreement descriptions (an empty
list means the suite passed). ``max_n`` and ``seed`` are parameters
where ``sperner sweep`` passes them; the other caps are constants.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .bitset import bits, mask_of
from .cliquewidth import (built, evaluate, expression_length, max_label,
                          parse_expression)
from .decomposition import (DecompositionError, MPartition,
                            check_decomposition_tree, decompose_bigraph_2p3_free,
                            decompose_cobigraph, decompose_split_h_free,
                            decompose_split_hbar_free, is_clique_sperner,
                            is_independent_sperner, is_right_sperner,
                            labeled_two_p3_witness)
from .domination import (VARIANTS, brute_force, dp_dominating_set, is_dominating,
                         solve_h_free_split_all)
from .generators import (antichain_bitmaps, hyperedge_families, labeled_graphs,
                         one_sperner_hypergraphs, random_bigraph_2p3_free,
                         random_cobigraph, random_graph, random_one_sperner,
                         random_split_h_free, random_split_hbar_free,
                         split_graph_structures)
from .graphs import (Graph, GraphError, LabeledSplitGraph, bigraph_of,
                     dominating_set_hypergraph, edge_clique_split_of,
                     find_induced, pattern, vertex_clique_split_of)
from .hypergraph import (Hypergraph, decompose, dual_masks, is_conformal,
                         is_dually_sperner, is_k_sperner, is_one_sperner,
                         is_sperner, marked_preorder, recompose, transversal)
from .recognition import check_domishold_equivalences, check_threshold_equivalences
from .threshold import is_k_asummable, is_threshold_hypergraph

DEFAULT_SEED = 177

# The caps of the acceptance criteria that are not parameters; each
# report records the ones its sweep reads.
EQUIVALENCE_RANDOM_NS = (7, 8)
EQUIVALENCE_RANDOM_PER_N = 500
ROUNDTRIP_SAMPLES = 1000
ROUNDTRIP_EXHAUSTIVE_N = 4
INVOLUTION_LIBRARY_EXHAUSTIVE_N = 5
INVOLUTION_LIBRARY_SAMPLE = 100_000
INCIDENCE_MAX_N = 5
INCIDENCE_MAX_M = 5
PER_CLASS = 500
EXHAUSTIVE_TOTAL = 8
DOMINATION_GEN_MAX_N = 12
DOMINATION_DP_MAX_N = 14
DOMINATION_EXHAUSTIVE_N = 8
DOMINATION_REDUCTION_N = 9


@dataclass
class SweepReport:
    name: str
    seed: Optional[int]
    caps: dict
    instances: int = 0
    disagreements: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def flag(self, message: str):
        self.disagreements.append(message)

    def lines(self) -> list[str]:
        cap_text = " ".join(f"{k}={v}" for k, v in sorted(self.caps.items()))
        out = [f"suite {self.name}: {'PASS' if self.passed else 'FAIL'} "
               f"({self.instances} instances, {self.elapsed:.1f}s, "
               f"seed={self.seed}, {cap_text})"]
        for d in self.disagreements[:20]:
            out.append(f"  disagreement: {d}")
        if len(self.disagreements) > 20:
            out.append(f"  ... and {len(self.disagreements) - 20} more")
        out.extend(f"  note: {n}" for n in self.notes)
        return out


# ---------------------------------------------------------------------------
# Criterion 1 and 2: equivalence suites
# ---------------------------------------------------------------------------

def threshold_equivalence_sweep(max_n: int = 6, seed: int = DEFAULT_SEED) -> SweepReport:
    """All seven threshold characterizations agree on every labeled graph
    with at most max_n vertices and on seeded random larger graphs."""
    rep = SweepReport("threshold-equiv", seed,
                      {"max_n": max_n, "random_per_n": EQUIVALENCE_RANDOM_PER_N})
    t0 = time.time()
    for g in _equivalence_instances(max_n, seed):
        rep.instances += 1
        r = check_threshold_equivalences(g)
        if not r.agrees:
            rep.flag(f"{g}: " + "; ".join(r.lines()))
    rep.elapsed = time.time() - t0
    return rep


def domishold_equivalence_sweep(max_n: int = 6, seed: int = DEFAULT_SEED) -> SweepReport:
    """The six domishold characterizations agree on the same instance set,
    and the dominating set hypergraph of C4 is threshold but not 1-Sperner."""
    rep = SweepReport("domishold-equiv", seed,
                      {"max_n": max_n, "random_per_n": EQUIVALENCE_RANDOM_PER_N})
    t0 = time.time()
    c4 = pattern("C4")
    dh = dominating_set_hypergraph(c4)
    if not is_threshold_hypergraph(dh) or is_one_sperner(dh):
        rep.flag("dominating set hypergraph of C4 must be threshold, not 1-Sperner")
    for g in _equivalence_instances(max_n, seed):
        rep.instances += 1
        r = check_domishold_equivalences(g)
        if not r.agrees:
            rep.flag(f"{g}: " + "; ".join(r.lines()))
    rep.elapsed = time.time() - t0
    return rep


def _equivalence_instances(max_n, seed):
    for n in range(max_n + 1):
        yield from labeled_graphs(n)
    rng = random.Random(seed)
    for n in EQUIVALENCE_RANDOM_NS:
        for _ in range(EQUIVALENCE_RANDOM_PER_N):
            yield random_graph(n, rng)


# ---------------------------------------------------------------------------
# Criterion 3: gluing decomposition round trip + transversal involution
# ---------------------------------------------------------------------------

def decomposition_roundtrip_sweep(max_n: int = 14, seed: int = DEFAULT_SEED) -> SweepReport:
    """decompose/recompose is bit-exact on seeded random 1-Sperner
    hypergraphs with 0 to max_n vertices and on every 1-Sperner hypergraph
    with few vertices."""
    _check_max_n("decomposition-roundtrip", max_n, 0)
    rep = SweepReport("decomposition-roundtrip", seed,
                      {"samples": ROUNDTRIP_SAMPLES, "max_n": max_n,
                       "exhaustive_n": ROUNDTRIP_EXHAUSTIVE_N})
    t0 = time.time()
    rng = random.Random(seed)
    for _ in range(ROUNDTRIP_SAMPLES):
        h = random_one_sperner(rng.randint(0, max_n), rng)
        rep.instances += 1
        if not is_one_sperner(h):
            rep.flag(f"generator emitted non-1-Sperner {h}")
            continue
        if recompose(decompose(h)) != h:
            rep.flag(f"recomposition mismatch on {h}")
    for n in range(ROUNDTRIP_EXHAUSTIVE_N + 1):
        for masks in _all_mask_families(n):
            h = Hypergraph.from_masks(range(n), masks)
            if not is_one_sperner(h):
                continue
            rep.instances += 1
            if recompose(decompose(h)) != h:
                rep.flag(f"recomposition mismatch on {h}")
    rep.elapsed = time.time() - t0
    return rep


def _check_max_n(suite: str, max_n: int, least: int):
    if max_n < least:
        raise GraphError(f"suite {suite} needs max_n >= {least}, got {max_n}")


def _all_mask_families(n: int) -> Iterator[tuple[int, ...]]:
    universe = 1 << n
    for picks in range(1 << universe):
        yield tuple(m for m in range(universe) if picks >> m & 1)


# 64-bit family algebra over the six-vertex universe: a family is one int
# with bit m set iff vertex-subset-mask m is a hyperedge.
_N6 = 6
_SIZE6 = 1 << _N6
_FULL6 = (1 << _SIZE6) - 1
_HAS6 = [sum(1 << x for x in range(_SIZE6) if x >> b & 1) for b in range(_N6)]
_NOT_HAS6 = [~m & _FULL6 for m in _HAS6]
_REV_MASKS = ((1, 0x5555555555555555), (2, 0x3333333333333333),
              (4, 0x0F0F0F0F0F0F0F0F), (8, 0x00FF00FF00FF00FF),
              (16, 0x0000FFFF0000FFFF))


def _rev64(x: int) -> int:
    for s, m in _REV_MASKS:
        x = ((x >> s) & m) | ((x & m) << s)
    return ((x >> 32) | (x << 32)) & _FULL6


def dual_family_bitmap(fam: int) -> int:
    """Minimal transversals of a family over 6 vertices, in family-bitmap form.

    Word-parallel: upward closure by six shift-or steps, transversal test
    by reversing the complement (the complement of a transversal is
    independent), minimality by six shift-and steps. Exact, and an
    independent formulation of the sequential-extension transversal.
    """
    dep = fam
    for b in range(_N6):
        dep |= (dep & _NOT_HAS6[b]) << (1 << b)
    tr = _rev64(~dep & _FULL6)
    nonmin = 0
    for b in range(_N6):
        nonmin |= (tr << (1 << b)) & _HAS6[b]
    return tr & ~nonmin & _FULL6


def transversal_involution_sweep(seed: int = DEFAULT_SEED) -> SweepReport:
    """transversal(transversal(h)) == h for every Sperner h on <= 6 vertices.

    Every Sperner family over at most six vertices is checked through the
    word-parallel dual (the n < 6 families all reappear over the 6-vertex
    universe, and extra isolated vertices do not change transversals). The
    sequential-extension transversal used by the library is checked to
    agree with the word-parallel dual exhaustively up to
    INVOLUTION_LIBRARY_EXHAUSTIVE_N vertices and on a seeded sample at six,
    plus full library-path involution through the Hypergraph API on that
    sample.
    """
    rep = SweepReport("transversal-involution", seed,
                      {"max_n": 6, "library_exhaustive_n": INVOLUTION_LIBRARY_EXHAUSTIVE_N,
                       "library_sample": INVOLUTION_LIBRARY_SAMPLE})
    t0 = time.time()
    rng = random.Random(seed)
    sampled = 0
    # one pass: the sample draw consumes rng once per family, in order
    for fam in antichain_bitmaps(6):
        rep.instances += 1
        dual = dual_family_bitmap(fam)
        if dual_family_bitmap(dual) != fam:
            rep.flag(f"involution failed on family bitmap {fam:#x}")
        if rng.random() * 7_828_354 > INVOLUTION_LIBRARY_SAMPLE:
            continue
        masks = tuple(bits(fam))
        if sum(1 << m for m in dual_masks(masks, 6)) != dual:
            rep.flag(f"library transversal disagrees on masks {masks}")
        if sampled % 20 == 0:
            h = Hypergraph.from_masks(range(6), masks)
            if transversal(transversal(h)) != h:
                rep.flag(f"library involution failed on {h}")
        sampled += 1
    rep.notes.append(f"word-parallel involution over {rep.instances} Sperner families")
    checked = 0
    for n in range(INVOLUTION_LIBRARY_EXHAUSTIVE_N + 1):
        for fam in antichain_bitmaps(n):
            masks = tuple(bits(fam))
            got = sum(1 << m for m in dual_masks(masks, 6))
            if got != dual_family_bitmap(fam):
                rep.flag(f"library transversal disagrees on masks {masks} (n={n})")
            checked += 1
    rep.notes.append(f"library agreement on {checked} small + {sampled} sampled families")
    rep.instances += checked + sampled
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Criterion 4: incidence translation
# ---------------------------------------------------------------------------

def incidence_translation_sweep() -> SweepReport:
    """1-Spernerness of a hypergraph matches all three incidence-graph
    characterizations for every hypergraph with <= INCIDENCE_MAX_N
    vertices and <= INCIDENCE_MAX_M hyperedges."""
    rep = SweepReport("incidence-translation", None,
                      {"max_n": INCIDENCE_MAX_N, "max_m": INCIDENCE_MAX_M})
    t0 = time.time()
    co_h = pattern("co-H")
    h_pat = pattern("H")
    for n in range(INCIDENCE_MAX_N + 1):
        for masks in hyperedge_families(n, INCIDENCE_MAX_M):
            h = Hypergraph.from_masks(range(n), masks)
            rep.instances += 1
            want = is_one_sperner(h)
            lb = bigraph_of(h)
            via_bigraph = is_right_sperner(lb) and labeled_two_p3_witness(lb) is None
            vc = vertex_clique_split_of(h)
            via_vertex = (is_independent_sperner(vc)
                          and find_induced(vc.g, co_h) is None)
            ec = edge_clique_split_of(h)
            via_edge = is_clique_sperner(ec) and find_induced(ec.g, h_pat) is None
            if not want == via_bigraph == via_vertex == via_edge:
                rep.flag(f"{h}: h={want} bigraph={via_bigraph} "
                         f"vertex-clique={via_vertex} edge-clique={via_edge}")
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Criterion 5 and 6: graph decompositions and clique-width builders
# ---------------------------------------------------------------------------

def _two_p3_free_bigraph_of(h: Hypergraph):
    lb = bigraph_of(h)
    return lb if find_induced(lb.g, pattern("2P3")) is None else None


def _cobigraph_of(h: Hypergraph):
    lb = _two_p3_free_bigraph_of(h)
    return None if lb is None else lb.g.complement()


class _Class(NamedTuple):
    decompose: Callable      # instance -> decomposition tree
    generate: Callable       # (size, rng) -> instance
    of_hypergraph: Callable  # 1-Sperner hypergraph -> instance, or None


# Instances are labeled graphs, except the plain graphs of "cobigraph".
_CLASSES = {
    "split-H": _Class(decompose_split_h_free, random_split_h_free, edge_clique_split_of),
    "split-Hbar": _Class(decompose_split_hbar_free, random_split_hbar_free,
                         vertex_clique_split_of),
    "bigraph": _Class(decompose_bigraph_2p3_free, random_bigraph_2p3_free,
                      _two_p3_free_bigraph_of),
    "cobigraph": _Class(decompose_cobigraph, random_cobigraph, _cobigraph_of),
}
CLASS_NAMES = tuple(_CLASSES)


def _graph_of(inst) -> Graph:
    return inst if isinstance(inst, Graph) else inst.g


def _exhaustive_class_instances(name: str, max_total: int):
    """All in-class graphs with at most max_total vertices, up to isomorphism,
    via the incidence constructions over small 1-Sperner hypergraphs."""
    of_hypergraph = _CLASSES[name].of_hypergraph
    for h in one_sperner_hypergraphs(max_total):
        if h.n + h.m == 0:
            continue
        inst = of_hypergraph(h)
        if inst is not None:
            yield inst


def _generated_class_instances(name: str, count: int, max_n: int, seed: int):
    generate = _CLASSES[name].generate
    rng = random.Random(seed)
    for _ in range(count):
        yield generate(rng.randint(1, max_n), rng)


def _check_decomposition(name: str, inst, rep: SweepReport):
    tree, g = _CLASSES[name].decompose(inst), _graph_of(inst)
    try:
        check_decomposition_tree(g, tree, name)
    except DecompositionError as exc:
        rep.flag(f"{name} {g}: {exc}")
        return
    # children of the split-H decomposition stay in class
    if name == "split-H":
        h_pat = pattern("H")
        for p in marked_preorder(tree):
            if not isinstance(p, MPartition):
                continue
            for kpart, ipart in ((p.parts[3], p.parts[1]), (p.parts[4], p.parts[2])):
                sub, ids = g.induced_with_map(bits(kpart | ipart))
                pos = {v: i for i, v in enumerate(ids)}
                child = LabeledSplitGraph(sub, frozenset(pos[v] for v in bits(kpart)),
                                          frozenset(pos[v] for v in bits(ipart)))
                if not is_clique_sperner(child) or find_induced(sub, h_pat):
                    rep.flag(f"{name} {g}: child at z={p.z} left the class")
                    return
    return tree


def graph_decomposition_sweep(max_n: int = 20, seed: int = DEFAULT_SEED) -> SweepReport:
    """Every node of every produced decomposition tree validates against its
    matrix, on generated instances with 1 to max_n vertices and exhaustively
    on small in-class graphs."""
    _check_max_n("graph-decomposition", max_n, 1)
    rep = SweepReport("graph-decomposition", seed,
                      {"per_class": PER_CLASS, "max_n": max_n,
                       "exhaustive_total": EXHAUSTIVE_TOTAL})
    t0 = time.time()
    for name in CLASS_NAMES:
        for inst in _exhaustive_class_instances(name, EXHAUSTIVE_TOTAL):
            rep.instances += 1
            _check_decomposition(name, inst, rep)
        for inst in _generated_class_instances(name, PER_CLASS, max_n, seed):
            rep.instances += 1
            _check_decomposition(name, inst, rep)
    rep.elapsed = time.time() - t0
    return rep


P4_EXPRESSION_TEXT = ("(adde 2 3 (union (rel 3 2 (rel 2 1 (adde 2 3 (union "
                      "(adde 1 2 (union (leaf 1 v1) (leaf 2 v2))) (leaf 3 v3)))))"
                      " (leaf 3 v4)))")


def _build_instance(name: str, inst):
    return built(_CLASSES[name].decompose(inst)), _graph_of(inst)


def cliquewidth_roundtrip_sweep(max_n: int = 20, seed: int = DEFAULT_SEED) -> SweepReport:
    """eval(build(g)) == g with labels in [5], on the instances of
    ``graph_decomposition_sweep``; the split-H expressions stay within 60
    tokens per vertex; the bundled P4 3-expression fixture evaluates to P4."""
    _check_max_n("cwd-roundtrip", max_n, 1)
    rep = SweepReport("cwd-roundtrip", seed,
                      {"per_class": PER_CLASS, "max_n": max_n,
                       "exhaustive_total": EXHAUSTIVE_TOTAL})
    t0 = time.time()
    fixture = evaluate(parse_expression(P4_EXPRESSION_TEXT), k=3)
    p4_edges = {frozenset((1, 2)), frozenset((2, 3)), frozenset((3, 4))}
    if fixture.edges != p4_edges:
        rep.flag("P4 3-expression fixture does not evaluate to P4")
    worst_ratio = 0.0
    for name in CLASS_NAMES:
        for where, gen in (("exhaustive", _exhaustive_class_instances(name, EXHAUSTIVE_TOTAL)),
                           ("generated", _generated_class_instances(name, PER_CLASS, max_n, seed))):
            for inst in gen:
                rep.instances += 1
                expr, g = _build_instance(name, inst)
                value = evaluate(expr)
                if max_label(expr) > 5:
                    rep.flag(f"{name} ({where}) {g}: expression uses label > 5")
                    continue
                if value.to_graph() != g:
                    rep.flag(f"{name} ({where}) {g}: eval(build(g)) != g")
                    continue
                length = expression_length(expr)
                if g.n:
                    worst_ratio = max(worst_ratio, length / g.n)
                if name == "split-H" and length > 60 * g.n:
                    rep.flag(f"{name} {g}: expression length {length} > 60n")
    rep.notes.append(f"worst tokens-per-vertex ratio {worst_ratio:.1f}")
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Criterion 7: domination
# ---------------------------------------------------------------------------

def domination_sweep(seed: int = DEFAULT_SEED) -> SweepReport:
    """The k-expression dynamic program matches brute force; the H-free
    split pipeline matches brute force on all three variants; deleting a
    dominated clique vertex preserves the domination number."""
    rep = SweepReport("domination", seed,
                      {"per_class": PER_CLASS, "gen_max_n": DOMINATION_GEN_MAX_N,
                       "dp_max_n": DOMINATION_DP_MAX_N,
                       "exhaustive_n": DOMINATION_EXHAUSTIVE_N,
                       "reduction_n": DOMINATION_REDUCTION_N})
    t0 = time.time()
    # dp vs brute force on the criterion-6 expressions of bounded size
    for name in CLASS_NAMES:
        for where, gen in (("exhaustive", _exhaustive_class_instances(name, EXHAUSTIVE_TOTAL)),
                           ("generated", _generated_class_instances(name, PER_CLASS, 20, seed))):
            for inst in gen:
                if _graph_of(inst).n > DOMINATION_DP_MAX_N:
                    continue
                expr, g = _build_instance(name, inst)
                rep.instances += 1
                got = dp_dominating_set(expr)
                want = brute_force(g, "dominating")
                if got.size != want.size or not is_dominating(g, got.witness):
                    rep.flag(f"dp mismatch on {name} ({where}) {g}: "
                             f"{got.size} vs {want.size}")
    # pipeline vs brute force, exhaustive in-class then generated
    h_pat = pattern("H")
    for n in range(DOMINATION_EXHAUSTIVE_N + 1):
        for ls in split_graph_structures(n):
            if find_induced(ls.g, h_pat) is not None:
                continue
            rep.instances += 1
            _check_pipeline(ls.g, rep)
    rng = random.Random(seed)
    for _ in range(PER_CLASS):
        ls = random_split_h_free(rng.randint(1, DOMINATION_GEN_MAX_N), rng)
        rep.instances += 1
        _check_pipeline(ls.g, rep)
    # single-vertex-deletion reduction preserves gamma on split graphs
    for n in range(DOMINATION_REDUCTION_N + 1):
        for ls in split_graph_structures(n):
            g, K = ls.g, sorted(ls.K)
            imask = mask_of(ls.I)
            base = None
            for u in K:
                hu = g.adj[u] & imask
                if any(v != u and hu & (g.adj[v] & imask) == hu for v in K):
                    if base is None:
                        base = brute_force(g, "dominating").size
                    rest = g.induced([x for x in range(g.n) if x != u])
                    rep.instances += 1
                    if brute_force(rest, "dominating").size != base:
                        rep.flag(f"deletion reduction broke gamma on {g} minus {u}")
    rep.elapsed = time.time() - t0
    return rep


def _check_pipeline(g: Graph, rep: SweepReport):
    for variant, got in zip(VARIANTS, solve_h_free_split_all(g)):
        want = brute_force(g, variant)
        if got.infeasible != want.infeasible:
            rep.flag(f"{variant} feasibility mismatch on {g}")
        elif not got.infeasible:
            if got.size != want.size or not is_dominating(g, got.witness, variant):
                rep.flag(f"{variant} mismatch on {g}: {got.size} vs {want.size}")


# ---------------------------------------------------------------------------
# Criterion 8: the counterexample fixtures
# ---------------------------------------------------------------------------

def fixtures_sweep() -> SweepReport:
    """The small separating examples between the hypergraph classes."""
    rep = SweepReport("fixtures", None, {})
    t0 = time.time()

    def expect(cond: bool, what: str):
        rep.instances += 1
        if not cond:
            rep.flag(what)

    k3 = Hypergraph(range(3), [{0, 1}, {0, 2}, {1, 2}])
    expect(is_one_sperner(k3), "K3 edges are 1-Sperner")
    expect(not is_conformal(k3), "K3 edges are not conformal")

    k4 = Hypergraph(range(4), [{i, j} for i in range(4) for j in range(i + 1, 4)])
    expect(is_threshold_hypergraph(k4), "K4 edges are threshold")
    expect(is_sperner(k4), "K4 edges are Sperner")
    expect(not is_dually_sperner(k4), "K4 edges are not dually Sperner")
    expect(not is_conformal(k4), "K4 edges are not conformal")

    p4 = Hypergraph(range(4), [{0, 1}, {1, 2}, {2, 3}])
    expect(is_conformal(p4), "P4 edges are conformal")
    expect(is_sperner(p4), "P4 edges are Sperner")
    expect(not is_k_asummable(p4, 2), "P4 edges are not 2-asummable")

    de = Hypergraph([1], [set(), {1}])
    expect(is_dually_sperner(de), "{{},{1}} is dually Sperner")
    expect(not is_sperner(de), "{{},{1}} is not Sperner")

    two_k3 = Hypergraph(range(6), [{0, 1, 2}, {3, 4, 5}])
    expect(is_conformal(two_k3), "clique hypergraph of 2K3 is conformal")
    expect(is_sperner(two_k3), "clique hypergraph of 2K3 is Sperner")
    expect(not is_k_sperner(two_k3, 2), "clique hypergraph of 2K3 is not 2-Sperner")

    rep.elapsed = time.time() - t0
    return rep


SUITES = {
    "threshold-equiv": threshold_equivalence_sweep,
    "domishold-equiv": domishold_equivalence_sweep,
    "decomposition-roundtrip": decomposition_roundtrip_sweep,
    "transversal-involution": transversal_involution_sweep,
    "incidence-translation": incidence_translation_sweep,
    "graph-decomposition": graph_decomposition_sweep,
    "cwd-roundtrip": cliquewidth_roundtrip_sweep,
    "domination": domination_sweep,
    "fixtures": fixtures_sweep,
}

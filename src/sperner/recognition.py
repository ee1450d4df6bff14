"""Threshold and domishold graph recognition with cross-characterizations.

Threshold graphs are the {P4, C4, 2K2}-free graphs; equivalently the
graphs buildable from one vertex by repeatedly adding an isolated or a
universal vertex, and equivalently the split graphs having a split
partition whose independent-side neighborhoods form a chain. Domishold
graphs are the {P4, 2K2, K33, K33+, co-2P3}-free graphs.

The equivalence reports evaluate, for one graph, the whole family of
predicates that are provably equivalent for its derived hypergraphs
(vertex cover, clique, closed neighborhood, dominating set): 1-Sperner,
threshold, 2-asummable. A disagreement in a report means a bug somewhere,
so the sweeps assert full agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bitset import bits, mask_of
from .graphs import (Graph, GraphError, clique_hypergraph,
                     closed_neighborhood_hypergraph, cutset_hypergraph,
                     dominating_set_hypergraph, find_split_partition,
                     forbidden_witness, neighborhood_hypergraph,
                     vertex_cover_hypergraph)
from .hypergraph import is_one_sperner
from .threshold import is_k_asummable, is_threshold_hypergraph

THRESHOLD_FORBIDDEN = ("P4", "C4", "2K2")
DOMISHOLD_FORBIDDEN = ("P4", "2K2", "K33", "K33+", "co-2P3")
# the most vertices of a graph the equivalence reports and hereditary checks take
VERTEX_CAP = 8


def is_threshold_graph(g: Graph) -> bool:
    return threshold_graph_violation(g) is None


def threshold_graph_violation(g: Graph) -> Optional[tuple[str, tuple[int, ...]]]:
    """A forbidden induced subgraph witness (name, image), or None."""
    return forbidden_witness(g, THRESHOLD_FORBIDDEN)


def is_domishold_graph(g: Graph) -> bool:
    return domishold_graph_violation(g) is None


def domishold_graph_violation(g: Graph) -> Optional[tuple[str, tuple[int, ...]]]:
    return forbidden_witness(g, DOMISHOLD_FORBIDDEN)


# ---------------------------------------------------------------------------
# Construction sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionSequence:
    """Build recipe: start from the seed vertex, then apply the recorded
    add-isolated / add-universal steps in order."""
    seed: Optional[int]
    steps: tuple[tuple[str, int], ...]

    def replay(self, n: int) -> Graph:
        """Reconstruct the graph on vertices 0..n-1."""
        present: list[int] = []
        edges: list[tuple[int, int]] = []
        if self.seed is not None:
            present.append(self.seed)
        for kind, v in self.steps:
            if kind == "universal":
                edges += [(min(u, v), max(u, v)) for u in present]
            elif kind != "isolated":
                raise ValueError(f"unknown step {kind!r}")
            present.append(v)
        return Graph(n, edges)


def threshold_construction(g: Graph) -> Optional[ConstructionSequence]:
    """A construction sequence for g, or None when g is not threshold.

    Peels vertices in reverse: repeatedly remove an isolated or universal
    vertex among the remaining ones, preferring isolated and the lowest
    index on ties. A threshold graph always admits such a peeling.
    """
    n = g.n
    if n == 0:
        return ConstructionSequence(None, ())
    alive = (1 << n) - 1
    count = n
    removed: list[tuple[str, int]] = []
    while count > 1:
        pick = None
        for v in bits(alive):
            if g.adj[v] & alive == 0:
                pick = ("isolated", v)
                break
        if pick is None:
            for v in bits(alive):
                if g.adj[v] & alive == alive & ~(1 << v):
                    pick = ("universal", v)
                    break
        if pick is None:
            return None
        removed.append(pick)
        alive ^= 1 << pick[1]
        count -= 1
    seed = next(bits(alive))
    return ConstructionSequence(seed, tuple(reversed(removed)))


def is_threshold_via_nested(g: Graph) -> bool:
    """Split with a partition whose I-side neighborhoods form a chain."""
    base = find_split_partition(g)
    if base is None:
        return False
    for K, I in all_split_partitions(g, base):
        hoods = sorted(g.adj[v] for v in I)
        if all(a & ~b == 0 for a, b in zip(hoods, hoods[1:])):
            return True
    return False


def all_split_partitions(g: Graph, base: Optional[tuple[frozenset, frozenset]] = None):
    """All split partitions of g. Any two split partitions differ by at most
    one vertex on each side, so all are found by single moves/swaps from one."""
    if base is None:
        base = find_split_partition(g)
        if base is None:
            return
    K0, I0 = base
    seen = set()
    for u in list(K0) + [None]:
        for v in list(I0) + [None]:
            K = (K0 - {u} if u is not None else K0) | ({v} if v is not None else set())
            if K in seen:
                continue
            seen.add(K)
            I = frozenset(range(g.n)) - K
            km = mask_of(K)
            im = mask_of(I)
            if all(km & ~g.adj[x] & ~(1 << x) == 0 for x in K) and \
               all(g.adj[x] & im == 0 for x in I):
                yield K, I


# ---------------------------------------------------------------------------
# Equivalence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredicateRecord:
    name: str
    value: bool
    in_equivalence: bool


@dataclass(frozen=True)
class EquivalenceReport:
    graph: Graph
    records: tuple[PredicateRecord, ...]

    @property
    def equivalence_values(self) -> list[bool]:
        return [r.value for r in self.records if r.in_equivalence]

    @property
    def agrees(self) -> bool:
        vals = self.equivalence_values
        return all(v == vals[0] for v in vals)

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            extra = "" if r.in_equivalence else "  (reported only)"
            out.append(f"{r.name}: {str(r.value).lower()}{extra}")
        out.append(f"agreement: {str(self.agrees).lower()}")
        return out

    def to_records(self) -> list[dict]:
        """One dict per predicate, plus a summary record."""
        out = [{"predicate": r.name, "value": r.value,
                "in_equivalence": r.in_equivalence} for r in self.records]
        out.append({"predicate": "agreement", "value": self.agrees,
                    "in_equivalence": False})
        return out


def check_threshold_equivalences(g: Graph) -> EquivalenceReport:
    """Evaluate the threshold-graph characterizations on g.

    The seven predicates - forbidden-subgraph thresholdness of g and the
    1-Sperner / threshold / 2-asummable properties of the vertex cover and
    clique hypergraphs - must all agree.
    """
    if g.n > VERTEX_CAP:
        raise GraphError(f"equivalence report capped at {VERTEX_CAP} vertices")
    vc = vertex_cover_hypergraph(g)
    cl = clique_hypergraph(g)
    records = (
        PredicateRecord("graph-threshold", is_threshold_graph(g), True),
        PredicateRecord("vertex-cover-1-sperner", is_one_sperner(vc), True),
        PredicateRecord("vertex-cover-threshold", is_threshold_hypergraph(vc), True),
        PredicateRecord("vertex-cover-2-asummable", is_k_asummable(vc, 2), True),
        PredicateRecord("clique-1-sperner", is_one_sperner(cl), True),
        PredicateRecord("clique-threshold", is_threshold_hypergraph(cl), True),
        PredicateRecord("clique-2-asummable", is_k_asummable(cl, 2), True),
    )
    return EquivalenceReport(g, records)


def check_domishold_equivalences(g: Graph) -> EquivalenceReport:
    """Evaluate the domishold-graph characterizations on g.

    Six predicates must agree: forbidden-subgraph domisholdness, the
    1-Sperner / threshold / 2-asummable properties of the closed
    neighborhood hypergraph, and the threshold / 2-asummable properties of
    the dominating set hypergraph. 1-Spernerness of the dominating set
    hypergraph is reported but not part of the equivalence.
    """
    if g.n > VERTEX_CAP:
        raise GraphError(f"equivalence report capped at {VERTEX_CAP} vertices")
    nh = closed_neighborhood_hypergraph(g)
    dh = dominating_set_hypergraph(g)
    records = (
        PredicateRecord("graph-domishold", is_domishold_graph(g), True),
        PredicateRecord("closed-neighborhood-1-sperner", is_one_sperner(nh), True),
        PredicateRecord("closed-neighborhood-threshold", is_threshold_hypergraph(nh), True),
        PredicateRecord("closed-neighborhood-2-asummable", is_k_asummable(nh, 2), True),
        PredicateRecord("dominating-set-threshold", is_threshold_hypergraph(dh), True),
        PredicateRecord("dominating-set-2-asummable", is_k_asummable(dh, 2), True),
        PredicateRecord("dominating-set-1-sperner", is_one_sperner(dh), False),
    )
    return EquivalenceReport(g, records)


# ---------------------------------------------------------------------------
# Hereditary total / connected domishold
# ---------------------------------------------------------------------------

def is_hereditary_total_domishold(g: Graph) -> bool:
    """Whether the neighborhood hypergraph of every induced subgraph of g
    is 1-Sperner."""
    return _hereditary_check(g, neighborhood_hypergraph)


def is_hereditary_connected_domishold(g: Graph) -> bool:
    """Same as the total variant but for cutset hypergraphs."""
    return _hereditary_check(g, cutset_hypergraph)


def _hereditary_check(g: Graph, derive) -> bool:
    if g.n > VERTEX_CAP:
        raise GraphError(f"hereditary check capped at {VERTEX_CAP} vertices")
    return all(is_one_sperner(derive(g.induced(bits(sub)))) for sub in range(1 << g.n))

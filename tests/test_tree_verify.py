"""``ThresholdWitness.verify`` checks a 1-Sperner input along its gluing
tree instead of dualizing it, and ``is_conformal`` enumerates maximal
cliques on an explicit stack, so ``hyp-check`` answers 1,000-vertex
1-Sperner inputs without a ``RecursionError``."""

import random

import pytest

import sperner.cli as cli
import sperner.threshold as threshold
from sperner.bitset import iter_maximal_cliques, maximal_cliques
from sperner.generators import random_one_sperner
from sperner.hypergraph import Hypergraph, gluing_preorder, is_one_sperner
from sperner.sweeps import antichain_bitmaps
from sperner.textio import write_hypergraph
from sperner.threshold import ThresholdWitness

from oracles import brute_maximal_cliques, separates_mask_by_mask


def one_sperner_families(max_n):
    for n in range(max_n + 1):
        for fam in antichain_bitmaps(n):
            h = Hypergraph.from_masks(range(n), [m for m in range(1 << n) if fam >> m & 1])
            if is_one_sperner(h):
                yield h


def candidate_certificates(h, rng):
    """The fold's (w, t), random weights with a threshold near their
    heaviest independent set, and each of them with t moved by one and
    with one weight moved by one."""
    fold = threshold._gluing_threshold_witness(h, gluing_preorder(h))
    base = [([int(w) for w in fold.weights], int(fold.threshold))]
    for _ in range(2):
        w = [rng.randint(0, 6) for _ in range(h.n)]
        heaviest = threshold._heaviest_independent_by_duals(h, w)
        base.append((w, rng.randint(0, 1) + (0 if heaviest is None else heaviest)))
    for w, t in base:
        yield w, t
        yield w, t + 1
        if t:
            yield w, t - 1
        if h.n:
            v = rng.randrange(h.n)
            for d in (1, -1):
                if w[v] + d >= 0:
                    yield w[:v] + [w[v] + d] + w[v + 1:], t


def test_tree_check_accepts_exactly_when_the_dual_check_does(monkeypatch):
    rng = random.Random(20261019)
    families = accepted = rejected = 0
    certificates = []
    for h in one_sperner_families(5):
        families += 1
        order = gluing_preorder(h)
        for w, t in candidate_certificates(h, rng):
            assert (threshold._heaviest_independent_on_tree(h, order, w)
                    == threshold._heaviest_independent_by_duals(h, w)), (h, w)
            certificates.append((h, w, t))
    assert families == 2 + 3 + 6 + 20 + 131 + 1460
    # the family check alone: no input has at most -1 vertices
    monkeypatch.setattr(threshold, "EXHAUSTIVE_LIMIT", -1)
    tree = [ThresholdWitness(tuple(w), t).verify(h) for h, w, t in certificates]
    monkeypatch.setattr(threshold, "gluing_preorder", lambda h: None)
    duals = [ThresholdWitness(tuple(w), t).verify(h) for h, w, t in certificates]
    assert tree == duals
    for (h, w, t), ok in zip(certificates, tree):
        assert ok == separates_mask_by_mask(h, w, t), (h, w, t)
        accepted += ok
        rejected += not ok
    assert accepted and rejected


def test_tree_fold_is_the_heaviest_independent_weight_on_larger_inputs():
    rng = random.Random(3)
    for _ in range(300):
        h = random_one_sperner(rng.randint(6, 11), rng)
        w = [rng.randint(0, 6) for _ in range(h.n)]
        assert (threshold._heaviest_independent_on_tree(h, gluing_preorder(h), w)
                == threshold._heaviest_independent_by_duals(h, w)), (h, w)


class DualizationCalled(Exception):
    pass


def test_tree_check_does_not_dualize(monkeypatch):
    h = random_one_sperner(40, random.Random(5))

    def refuse(*args, **kwargs):
        raise DualizationCalled("a 1-Sperner certificate was checked through dualization")
    monkeypatch.setattr(threshold, "maximal_independent_masks", refuse)
    tw = threshold.threshold_witness(h)
    assert tw is not None and tw.verify(h)
    assert not ThresholdWitness(tw.weights, tw.threshold + 1).verify(h)


def test_stack_cliques_match_the_recursive_oracle():
    rng = random.Random(11)
    for n in range(15):
        for density in (0.1, 0.3, 0.5, 0.8, 1.0):
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            want = brute_maximal_cliques(adj, n)
            assert maximal_cliques(adj, n) == want, (n, adj)
            assert sorted(iter_maximal_cliques(adj, n)) == sorted(want)


@pytest.mark.parametrize("n", [1000, 2000])
def test_hyp_check_on_a_large_one_sperner_input(tmp_path, capsys, n):
    h = random_one_sperner(n, random.Random(3))
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(h))
    code = cli.main(["hyp-check", str(path)])
    out = capsys.readouterr()
    assert (code, out.err) == (1, "")
    values = [line for line in out.out.splitlines() if not line.startswith(" ")]
    assert values == ["sperner: true", "dually-sperner: true", "1-sperner: true",
                      "conformal: false", "threshold: true", "2-asummable: true"]

"""``hyp-check`` decides a 1-Sperner input from one gluing tree: the three
Sperner lines from the tree's existence, conformality by a fold over it
(``is_conformal_on_tree``) and the threshold certificate from the same
list. The exhaustive threshold check keeps the subset sums as lanes of one
integer, and the clique search picks its pivot in one bit loop; each is
compared with the code it replaced (``tests/oracles.py``)."""

import random
import sys
from collections import Counter

import pytest

import sperner.cli as cli
import sperner.hypergraph as hypergraph
import sperner.threshold as threshold
from sperner.bitset import bits, iter_maximal_cliques, mask_sum
from sperner.generators import one_sperner_hypergraphs, random_one_sperner
from sperner.hypergraph import (Hypergraph, gluing_preorder, is_conformal,
                                is_conformal_on_tree, is_dually_sperner, is_sperner)
from sperner.textio import (asummability_witness_to_text, threshold_witness_to_text,
                            write_hypergraph)
from sperner.threshold import ThresholdWitness, k_asummability_witness, threshold_certificate

from oracles import (brute_is_conformal, iter_maximal_cliques_by_max,
                     separates_all_subsets_by_doubling)
from test_hot_paths import _planted_pairs


def test_conformal_fold_on_all_small_one_sperner_families():
    families = conformal = 0
    for h in one_sperner_hypergraphs(9):
        fold = is_conformal_on_tree(gluing_preorder(h))
        assert fold == is_conformal(h) == brute_is_conformal(h), h
        families += 1
        conformal += fold
    assert (families, conformal) == (12641, 2248)


def test_conformal_fold_on_random_one_sperner_draws():
    rng = random.Random(24)
    conformal = 0
    for n in range(1, 61):
        for _ in range(8 if n <= 12 else 2):
            h = random_one_sperner(n, rng)
            fold = is_conformal_on_tree(gluing_preorder(h))
            assert fold == is_conformal(h), h
            if n <= 12:
                assert fold == brute_is_conformal(h), h
            conformal += fold
    assert conformal >= 15


def _weight_cases(h, rng):
    """Seeded (w, t) around a separating pair, or around random weights:
    t and t +- 1, one weight + 1, t = 0, t above W, zero weights and
    weights of 200 bits and more."""
    n = h.n
    cert = threshold_certificate(h)
    bases = [[rng.randint(0, 5) for _ in range(n)],
             [0] * n,
             [rng.getrandbits(200 + rng.randint(0, 60)) for _ in range(n)]]
    if isinstance(cert, ThresholdWitness):
        w, t = threshold._integer_scaled(cert.weights, cert.threshold)
        yield w, t
        yield [x << 210 for x in w], t << 210
    for w in bases:
        total = sum(w)
        yield w, rng.randint(0, total + 1)
        yield w, total // 2
    for w, t in list(_around(bases, rng)):
        yield w, t


def _around(bases, rng):
    for w in bases:
        total = sum(w)
        t = rng.randint(0, total + 1)
        yield w, t + 1
        yield w, max(t - 1, 0)
        yield w, 0
        yield w, total + 1 + rng.randint(0, 3)
        if w:
            i = rng.randrange(len(w))
            yield w[:i] + [w[i] + 1] + w[i + 1:], t


def test_word_parallel_subset_check_matches_the_doubling_oracle():
    rng = random.Random(2024)
    separating = checked = 0
    for n in range(15):
        for k in range(3 if n <= 12 else 1):
            if k % 2:
                h = random_one_sperner(n, rng) if n else Hypergraph([], [set()])
            else:
                masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
                h = Hypergraph.from_masks(range(n), masks)
            for w, t in _weight_cases(h, rng):
                want = separates_all_subsets_by_doubling(h, w, t)
                assert threshold._separates_all_subsets(h, w, t) == want, (h, w, t)
                separating += want
                checked += 1
    assert checked > 500 and separating >= 20


def test_mask_sum_is_the_sum_over_the_set_bits():
    rng = random.Random(7)
    for n in (0, 1, 2, 8, 9, 64, 300, 3000):
        values = [rng.getrandbits(rng.choice((3, 70, 400))) for _ in range(n)]
        for mask in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))):
            assert mask_sum(values, mask) == sum(values[i] for i in bits(mask)), (n, mask)


def test_clique_order_matches_the_oracle():
    rng = random.Random(16)
    cliques = 0
    for n in range(17):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95) * 2:
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            got = list(iter_maximal_cliques(adj, n))
            assert got == list(iter_maximal_cliques_by_max(adj, n)), (n, adj)
            cliques += len(got)
    assert cliques > 1000


def _count_calls(monkeypatch, module, names) -> Counter:
    """Count the calls of ``module``'s functions ``names`` through every
    ``sperner`` module that binds them."""
    calls = Counter()
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "sperner" and vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


def _hyp_check(tmp_path, capsys, h, *options):
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(h))
    code = cli.main([*options, "hyp-check", str(path)])
    out = capsys.readouterr()
    assert out.err == ""
    return code, out.out


SCANS = ("gluing_preorder", "is_conformal", "is_sperner", "is_dually_sperner")


def test_one_sperner_input_runs_one_tree_per_step(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, hypergraph, SCANS)
    rng = random.Random(9)
    for n in (2, 5, 9, 30):
        h = random_one_sperner(n, rng)
        # {} and {{}} get the degenerate certificates, with no tree
        assert h.edge_masks and 0 not in h.edge_masks
        calls.clear()
        _hyp_check(tmp_path, capsys, h)
        # one tree for the command, one that ``verify`` builds itself
        assert calls == {"gluing_preorder": 2}, (h, calls)


def test_other_inputs_run_the_scans(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, hypergraph, SCANS)
    h = _planted_pairs(14, 21, random.Random(9))
    _hyp_check(tmp_path, capsys, h)
    assert calls == {"gluing_preorder": 1, "is_conformal": 1, "is_dually_sperner": 1}


def hyp_check_text_by_scans(h) -> tuple[int, str]:
    """(exit code, text) of ``hyp-check`` as it was when every predicate
    had a scan of its own: the pair scans for the Sperner lines,
    Bron-Kerbosch for conformality and ``threshold_certificate`` for the
    rest."""
    cert = threshold_certificate(h)
    if isinstance(cert, ThresholdWitness):
        tw, aw = cert, None
    else:
        tw, aw = None, cert if cert is not None else k_asummability_witness(h, 2)
    sperner, dually = is_sperner(h), is_dually_sperner(h)
    preds = [("sperner", sperner, None), ("dually-sperner", dually, None),
             ("1-sperner", sperner and dually, None), ("conformal", is_conformal(h), None),
             ("threshold", tw is not None, tw and threshold_witness_to_text(h, tw)),
             ("2-asummable", aw is None, aw and asummability_witness_to_text(aw))]
    lines = []
    for name, value, witness in preds:
        lines.append(f"{name}: {str(value).lower()}")
        lines += ["  " + w for w in (witness or "").strip().splitlines()]
    return 0 if all(v for _, v, _ in preds) else 1, "\n".join(lines) + "\n"


def _families():
    rng = random.Random(31)
    for n in (0, 1, 2, 3, 5, 9, 9, 9, 14, 20, 40):
        yield random_one_sperner(n, rng) if n else Hypergraph([], [])
    for _ in range(12):
        yield _planted_pairs(14, 21, rng)
    for n in range(1, 9):
        yield Hypergraph.from_masks(range(n), {rng.randrange(1 << n) for _ in range(n)})


@pytest.mark.parametrize("h", list(_families()), ids=lambda h: f"n{h.n}m{h.m}")
def test_output_matches_the_scans(tmp_path, capsys, h):
    assert _hyp_check(tmp_path, capsys, h) == hyp_check_text_by_scans(h)

"""``hyp-check`` reads 2-asummability off the threshold step's verified
certificate, a separating (w, t) or an incomparable pair's witness, and
searches only regular non-threshold inputs; ``dependence_table`` is built
word-parallel and must match the per-set definition."""

import random
import tracemalloc

import pytest

import sperner.cli as cli
import sperner.threshold as threshold
from sperner.generators import random_one_sperner
from sperner.hypergraph import Hypergraph
from sperner.sweeps import antichain_bitmaps
from sperner.textio import write_hypergraph
from sperner.threshold import AsummabilityWitness, dependence_table

from oracles import brute_is_regular, brute_is_two_asummable


class AsummabilitySearchCalled(Exception):
    pass


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _hyp_check(tmp_path, capsys, h):
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(h))
    return run_cli(capsys, "hyp-check", str(path))


def _value(out, name):
    prefix = name + ": "
    (line,) = [ln for ln in out.splitlines() if ln.startswith(prefix)]
    return line[len(prefix):] == "true"


def printed_asummability_witness(out: str) -> AsummabilityWitness:
    """The witness ``hyp-check`` printed under ``2-asummable: false``, the
    last predicate."""
    sets = {"independent": [], "dependent": []}
    for line in out.split("2-asummable: false\n", 1)[1].splitlines():
        tag, body = line.split(maxsplit=1)
        sets[tag].append(frozenset(int(v) for v in body.strip("{}").split(",") if v))
    return AsummabilityWitness(tuple(sets["independent"]), tuple(sets["dependent"]))


def _random_families():
    rng = random.Random(20261018)
    for n in range(15):
        yield Hypergraph.from_masks(range(n), [])
        yield Hypergraph.from_masks(range(n), [0, rng.randrange(1 << n)])
        for _ in range(4):
            m = rng.randint(1, 2 * n + 2)
            yield Hypergraph.from_masks(range(n), {rng.randrange(1 << n) for _ in range(m)})


def test_dependence_table_matches_the_per_set_rule():
    for h in _random_families():
        want = bytearray(any(e & m == e for e in h.edge_masks) for m in range(1 << h.n))
        assert dependence_table(h) == want, (h.n, h.edge_masks)


@pytest.fixture
def no_asummability_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AsummabilitySearchCalled(
            "the 2-asummability search ran on an input a certificate decides")
    monkeypatch.setattr(cli, "k_asummability_witness", refuse)


def test_irregular_input_skips_the_search_and_the_table(tmp_path, capsys, monkeypatch,
                                                       no_asummability_search):
    def refuse(*args, **kwargs):
        raise AsummabilitySearchCalled("a dependence table was built for an irregular input")
    monkeypatch.setattr(threshold, "dependence_table", refuse)
    irregular = [h for h in _random_families() if not brute_is_regular(h)]
    irregular += [Hypergraph(range(n), [{i, i + 1} for i in range(n - 1)])
                  for n in (4, 12, 21, 40)]
    assert len(irregular) > 20
    for h in irregular:
        code, out, err = _hyp_check(tmp_path, capsys, h)
        assert (code, err) == (1, "")
        assert not _value(out, "threshold") and not _value(out, "2-asummable")
        assert printed_asummability_witness(out).verify(h), h


@pytest.mark.parametrize("h", [
    Hypergraph.from_masks(range(3), []),
    Hypergraph.from_masks(range(3), [0]),
    *(random_one_sperner(n, random.Random(n)) for n in (1, 4, 9, 14)),
], ids=["no-edges", "empty-edge", "n1", "n4", "n9", "n14"])
def test_threshold_input_skips_the_search(tmp_path, capsys, no_asummability_search, h):
    code, out, err = _hyp_check(tmp_path, capsys, h)
    assert err == "" and code in (0, 1)
    assert _value(out, "threshold") and _value(out, "2-asummable")


def test_two_asummable_line_matches_the_oracle_on_all_small_sperner_families(
        tmp_path, capsys):
    checked = 0
    for n in range(5):
        for fam in antichain_bitmaps(n):
            h = Hypergraph.from_masks(range(n), [m for m in range(1 << n) if fam >> m & 1])
            code, out, err = _hyp_check(tmp_path, capsys, h)
            assert err == "" and code in (0, 1)
            assert _value(out, "2-asummable") == brute_is_two_asummable(h), h.edge_masks
            checked += 1
    assert checked == 2 + 3 + 6 + 20 + 168


def test_threshold_input_above_the_search_cap(tmp_path, capsys):
    h = random_one_sperner(24, random.Random(3))
    assert h.n == 24
    tracemalloc.start()
    try:
        code, out, err = _hyp_check(tmp_path, capsys, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (1, "")
    values = {name: _value(out, name) for name in
              ("sperner", "dually-sperner", "1-sperner", "conformal",
               "threshold", "2-asummable")}
    assert values == {"sperner": True, "dually-sperner": True, "1-sperner": True,
                      "conformal": False, "threshold": True, "2-asummable": True}
    # a dependence table over 2^24 subsets alone would be 16 MiB
    assert peak < 1 << 20

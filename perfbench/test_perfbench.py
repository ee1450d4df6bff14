"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
COUNTS = ("calls_per_op", "tree_nodes_per_op", "rows_per_call", "sets_per_call",
          "expression_tokens_per_op", "brute_force.calls", "tree_depth_max",
          "accept_ratio")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture
def tiny(monkeypatch):
    """Small inputs and short runs, so every workload takes well under a second."""
    for name, value in (("SPLIT_NV", 8), ("SPLIT_M", 4), ("CWD_NV", 6), ("CWD_M", 3),
                        ("CWD_BIGRAPH", 8), ("HYP_ONE_SPERNER", (6, 3)),
                        ("HYP_PLANTED", (8, 10)), ("GLUE_N", 20)):
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {k: (gen, 6) for k, (gen, _) in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "MIN_OPS", 10)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(tiny, tmp_path, workload):
    res = run.measure(workload, 1, 0.0, str(tmp_path))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 10, res["reasons"]
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert list(res["metrics"]) == names
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(tiny, tmp_path, workload):
    res = run.measure_traced(workload, 1, 0.0, str(tmp_path))
    assert res["correct"] and res["failed"] == 0, res["reasons"]
    names = [m["name"] for m in _spec()["per_layer"]]
    assert list(res["metrics"]) == names
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    if workload in ("hyp-check", "glue-decompose"):
        assert metrics["graphs.find_induced.self_s"] == 0
    if workload == "split-dominate":
        assert metrics["domination.brute_force.calls"] == 0
        assert metrics["domination.dp.self_s"] > 0
    if workload == "glue-decompose":
        assert metrics["hypergraph.tree_depth_max"] > 0
    assert metrics["unattributed_s"] >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(tiny, tmp_path, workload):
    first, second = (run.measure_traced(workload, 7, 0.0, str(tmp_path))
                     for _ in range(2))
    counts = [k for k in first["metrics"] if k.endswith(COUNTS)]
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k


CORRUPTIONS = [("split-dominate", "smaller witness"), ("split-dominate", "larger witness"),
               ("class-cwd", "dropped edge"), ("hyp-check", "flipped predicate"),
               ("glue-decompose", "wrong gluing vertex")]


def _corrupt(kind: str, results):
    """Results of one op with one deliberate error in the output."""
    out = list(results)
    rc, text = out[0]
    if kind.endswith("witness"):
        # the first variant's set loses a vertex, so it no longer dominates,
        # or gains one, so it still dominates but is no longer minimum
        line, rest = text.split("\n", 1)
        toks = line.split()
        wit = toks[2:]
        if kind == "smaller witness":
            wit = wit[1:]
        else:
            wit.append(str(min(set(range(len(wit) + 1)) - {int(v) for v in wit})))
        out[0] = (rc, " ".join(toks[:1] + [str(len(wit))] + wit) + "\n" + rest)
    elif kind == "dropped edge":
        rc_eval, graph = out[1]
        lines = graph.splitlines()
        n, m = lines[0].split()
        out[1] = (rc_eval, "\n".join([f"{n} {int(m) - 1}"] + lines[2:]) + "\n")
    elif kind == "flipped predicate":
        out[0] = (rc, text.replace("sperner: true", "sperner: false", 1))
    else:
        out[0] = (rc, text.replace("z=", "z=1", 1))
    return out


@pytest.mark.parametrize("workload,kind", CORRUPTIONS)
def test_corrupted_output_counts_as_failed(tiny, tmp_path, monkeypatch, workload, kind):
    honest = run.run_op

    def corrupting(main, op):
        spent, results, error = honest(main, op)
        return spent, _corrupt(kind, results), error

    monkeypatch.setattr(run, "run_op", corrupting)
    res = run.measure(workload, 3, 0.0, str(tmp_path))
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["throughput_ops_s"]["value"] == 0


def test_crash_and_garbage_count_as_failed():
    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    op = workloads.Op("crash", [["dominate", "x"]],
                      lambda res: checks.check_dominate(2, ((0, 1),), *res[0]))
    spent, results, error = run.run_op(crash, op)
    assert error.startswith("RecursionError")
    verifier = run.Verifier()
    assert not verifier.ok(0, op, results, error)
    assert not verifier.ok(0, op, [(0, "dominating x y\n")], None)
    assert len(verifier.reasons) == 2


def test_exit_code_two_counts_as_failed(tmp_path):
    sp = run.import_sperner()
    op = workloads.Op("missing file", [["dominate", str(tmp_path / "none")]],
                      lambda res: None)
    spent, results, error = run.run_op(sp.cli.main, op)
    assert error.startswith("exit code 2")


def test_checks_reject_bad_answers():
    # path 0-1-2: {1} is a minimum dominating set; {0} does not dominate,
    # and {0, 1} dominates but is not minimum
    edges = ((0, 1), (1, 2))
    checks.check_dominate(3, edges, 0, "dominating 1 1\ntotal 2 0 1\nconnected 1 1\n")
    for bad in ("dominating 1 0\ntotal 2 0 1\nconnected 1 1\n",
                "dominating 2 1\ntotal 2 0 1\nconnected 1 1\n",
                "dominating 1 1\ntotal infeasible\nconnected 1 1\n",
                "dominating 1 1\ntotal 2 0 2\nconnected 1 1\n",
                "dominating 2 0 1\ntotal 2 0 1\nconnected 1 1\n",
                "dominating 1 1\ntotal 3 0 1 2\nconnected 1 1\n"):
        with pytest.raises(checks.CheckError):
            checks.check_dominate(3, edges, 0, bad)
    with pytest.raises(checks.CheckError):
        checks.check_cwd_roundtrip(2, ((0, 1),), 0, "(leaf 6 v0)", 0, "2 1\n0 1\n")


def test_conformal_oracle_matches_package():
    import random
    sp = run.import_sperner()
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 6)
        masks = sorted({rng.randrange(1 << n) for _ in range(rng.randint(0, 6))})
        h = sp.hypergraph.Hypergraph.from_masks(range(n), masks)
        assert checks.is_conformal(n, h.edge_masks) == sp.hypergraph.is_conformal(h)


def test_domination_oracle_matches_brute_force():
    import random
    sp = run.import_sperner()
    rng = random.Random(3)
    for _ in range(300):
        k, i = rng.randint(0, 5), rng.randint(0, 6)
        n = k + i
        if n == 0:
            continue
        # a random split graph: clique 0..k-1, independent k..n-1, relabelled
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        p = rng.random()
        edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < p]
        perm = rng.sample(range(n), n)
        adj = checks.adjacency(n, [(perm[u], perm[v]) for u, v in edges])
        optima = checks.domination_optima(n, adj)
        g = sp.graphs.Graph.from_adj(adj)
        for variant, size in optima.items():
            res = sp.domination.brute_force(g, variant)
            assert size == (None if res.infeasible else res.size), (n, edges, variant)


def test_tracer_rebinds_every_alias_and_restores():
    sp = run.import_sperner()
    orig = sp.graphs.find_induced
    holders = [m for m in vars(sp).values() if vars(m).get("find_induced") is orig]
    assert {m.__name__ for m in holders} >= {"sperner.graphs", "sperner.decomposition",
                                             "sperner.domination", "sperner.generators",
                                             "sperner.cli"}
    tr = tracer.Tracer(vars(sp))
    tr.install()
    try:
        assert all(m.find_induced is not orig for m in holders)
        assert hasattr(sp.threshold.ThresholdWitness.verify, "__wrapped__")
    finally:
        tr.uninstall()
    assert all(m.find_induced is orig for m in holders)
    assert not hasattr(sp.threshold.ThresholdWitness.verify, "__wrapped__")


def test_without_sources_exits_two(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "metrics" not in proc.stdout

#!/usr/bin/env python3
"""Closed-loop benchmark of the ``sperner`` command-line interface.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload split-dominate --seed 1 \\
        --seconds 20 --trace 0

One process, one thread, one client: each op calls ``sperner.cli.main``
in-process with its standard output captured, and the next op starts when
the previous one returns. Inputs are generated from ``--seed`` through
``sperner.generators`` and written under ``.perfbench_work/`` in the
checkout, which is removed at exit. Every op's output is checked by
``checks.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` installs the
wrappers of ``tracer.py`` and reports per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The package is imported from
``src/`` of the checkout only; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5          # setup_s is the median of this many set-ups
MIN_OPS = 100           # p90 needs ten samples beyond it
HARD_STOP_S = 120.0     # a run never measures longer than this, so that
                        # with its five set-ups it ends within 180 s
REFERENCE_OPS = 20      # traced output must equal untraced output on these
REF_NOMINAL_S = 0.002   # reference-loop time that defines the nominal speed
REF_WINDOW = 9          # reference samples in the running speed estimate
SETUP_CHUNK_S = 0.02    # set-up time between two reference samples

MODULES = ("bitset", "hypergraph", "graphs", "threshold", "lp", "textio",
           "decomposition", "cliquewidth", "domination", "generators",
           "recognition", "sweeps", "cli")


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_sperner() -> types.SimpleNamespace:
    """A fresh import of ``sperner`` and its modules from ``src/``."""
    for name in [m for m in sys.modules if m == "sperner" or m.startswith("sperner.")]:
        del sys.modules[name]
    mods = {"sperner": importlib.import_module("sperner")}
    for name in MODULES:
        mods[name] = importlib.import_module("sperner." + name)
    where = os.path.dirname(os.path.abspath(mods["sperner"].__file__))
    if where != os.path.join(SRC, "sperner"):
        raise SetupError(f"sperner was imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def generate(sp, workload: str, seed: int, run_dir: str):
    """The workload's ops, as they are generated, with input files in a new
    directory: (iterator of ops, ``workloads.Inputs``)."""
    gen, count = workloads.WORKLOADS[workload]
    inp = workloads.Inputs(sp, random.Random(f"{workload}/{seed}"),
                           tempfile.mkdtemp(dir=run_dir))
    return gen(inp, count), inp


def set_up(workload: str, seed: int, run_dir: str, speed):
    """Import the package and generate the inputs: (package, ops, seconds
    at the nominal speed, raw seconds).

    The time is taken in pieces of about SETUP_CHUNK_S, each scaled by the
    reference samples taken just before it, as the ops are: a set-up takes
    about a second, over which the machine's speed can change. Draws that
    the benchmark's size filter rejects are not counted (see
    ``workloads.Inputs``).
    """
    speed.sample()
    t0 = time.perf_counter()
    sp = import_sperner()
    raw = time.perf_counter() - t0
    nominal = speed.scale(raw)
    pending, inp = generate(sp, workload, seed, run_dir)
    ops = []
    while True:
        speed.sample()
        chunk = 0.0
        while chunk < SETUP_CHUNK_S:
            t0 = time.perf_counter()
            rejected = inp.rejected_s
            op = next(pending, None)
            spent = time.perf_counter() - t0 - (inp.rejected_s - rejected)
            raw += spent
            chunk += spent
            if op is None:
                return sp, ops, nominal + speed.scale(chunk), raw
            ops.append(op)
        nominal += speed.scale(chunk)


def run_op(main, op):
    """Run an op's CLI calls. Returns (seconds inside the calls,
    [(exit code, stdout)], error text or None)."""
    results = []
    spent = 0.0
    for i, argv in enumerate(op.steps):
        argv = [op.prev_path if a == "{prev}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a crash is a failed op, never a pass
                error = f"{type(exc).__name__}: {exc}"
            spent += time.perf_counter() - t0
        if error is not None:
            return spent, results, error
        if rc == 2:
            return spent, results, f"exit code 2: {err.getvalue().strip()}"
        results.append((rc, out.getvalue()))
        if op.prev_path and i + 1 < len(op.steps):
            with open(op.prev_path, "w", encoding="utf-8") as f:
                f.write(results[-1][1])
    return spent, results, None


class Verifier:
    """Checks op outputs; a verdict is cached per op and output digest."""

    def __init__(self):
        self.cache: dict = {}
        self.reasons: dict = {}

    def ok(self, index: int, op, results, error) -> bool:
        if error is not None:
            return self._record(f"{op.label}: {error}")
        key = (index,) + tuple((rc, hashlib.sha1(out.encode()).digest())
                               for rc, out in results)
        verdict = self.cache.get(key)
        if verdict is None:
            try:
                op.check(results)
                verdict = ""
            except Exception as exc:  # any error on the output fails the op
                verdict = f"{op.label}: {type(exc).__name__}: {exc}"
            self.cache[key] = verdict
        return self._record(verdict) if verdict else True

    def _record(self, reason: str) -> bool:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return False


def reference_work() -> int:
    """Fixed integer work in pure Python, about 2 ms on a 2020s x86 core.

    It allocates no containers, so the program's heap and garbage
    collector do not change its duration; only the machine's speed does.
    """
    acc = 0
    for i in range(6000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m & -m
        acc = (acc << 1 | acc >> 31) & 0xFFFFFFFF
    return acc


class Speed:
    """Running estimate of the machine's speed from the reference loop.

    Shared machines drift by a quarter in speed over tens of seconds, which
    is far above the bounds of the metrics. Every timed interval is
    therefore scaled by REF_NOMINAL_S over the median of the latest
    reference times, giving seconds at a fixed nominal speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, times: int = 1):
        for _ in range(times):
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)

    def scale(self, seconds: float) -> float:
        return seconds * REF_NOMINAL_S / statistics.median(self.samples[-REF_WINDOW:])


def _percentiles(latencies: list[float]) -> tuple[float, float, float]:
    """(ops per second, median, 90th percentile) of per-op times."""
    return (len(latencies) / sum(latencies), statistics.median(latencies),
            statistics.quantiles(latencies, n=10)[8])


def measure(workload: str, seed: int, seconds: float, run_dir: str) -> dict:
    """Untraced run: end-to-end metrics, in seconds at the nominal speed."""
    speed = Speed()
    speed.sample(REF_WINDOW)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        sp = ops = None
        gc.collect()  # leave nothing of the previous set-up to this one
        sp, ops, spent, raw_spent = set_up(workload, seed, run_dir, speed)
        setups.append(spent)
        raw_setups.append(raw_spent)
    gc.collect()
    verifier = Verifier()
    main = sp.cli.main
    latencies, raw, good = [], [], 0
    start = time.perf_counter()
    while True:
        i = len(latencies) % len(ops)
        speed.sample()
        spent, results, error = run_op(main, ops[i])
        raw.append(spent)
        latencies.append(speed.scale(spent))
        good += verifier.ok(i, ops[i], results, error)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= HARD_STOP_S:
            break
    attempted = len(latencies)
    ops_s, p50, p90 = _percentiles(latencies)
    raw_ops_s, raw_p50, raw_p90 = _percentiles(raw)
    metrics = {
        "throughput_ops_s": (ops_s * good / attempted, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"distinct_ops": len(ops), "failed_frac": (attempted - good) / attempted,
            "wall_s": time.perf_counter() - start,
            "reference_median_s": statistics.median(speed.samples),
            "raw_wall_clock": {"throughput_ops_s": raw_ops_s * good / attempted,
                               "latency_p50_s": raw_p50, "latency_p90_s": raw_p90,
                               "setup_s": statistics.median(raw_setups)}}
    return _result(attempted, attempted - good, metrics, info, verifier.reasons)


def measure_traced(workload: str, seed: int, seconds: float, run_dir: str) -> dict:
    """Traced run over whole passes of the inputs: per-layer self time and
    counts, per op. Whole passes make the counts repeat exactly."""
    sp = import_sperner()
    tr = tracing.Tracer(vars(sp))
    tr.install()
    t0 = time.perf_counter()
    pending, inp = generate(sp, workload, seed, run_dir)
    ops = list(pending)
    setup_wall = time.perf_counter() - t0
    generators_s = tr.self_s["generators"]
    # random 1-Sperner hypergraphs kept in an input, per one drawn
    accept_ratio = _ratio(inp.kept, tr.calls["random_one_sperner"])
    tr.uninstall()
    tr.reset()

    verifier = Verifier()
    # untraced reference outputs for the first ops
    reference = [run_op(sp.cli.main, op)[1] for op in ops[:REFERENCE_OPS]]
    tr.install()
    main = sp.cli.main
    traced_s = 0.0
    done = 0
    worst_gap = 0.0
    start = time.perf_counter()
    try:
        while done == 0 or time.perf_counter() - start < seconds:
            for i, op in enumerate(ops):
                before = tr.span_total() + tr.overhead_s
                spent, results, error = run_op(main, op)
                worst_gap = min(worst_gap,
                                spent - (tr.span_total() + tr.overhead_s - before))
                traced_s += spent
                done += 1
                if done <= len(reference) and error is None and results != reference[i]:
                    error = "traced output differs from untraced output"
                verifier.ok(i, op, results, error)
    finally:
        tr.uninstall()
    failed = sum(verifier.reasons.values())
    per_op = lambda x: x / done
    self_s = tr.self_s
    calls = tr.calls
    layer = lambda name: (per_op(self_s[name]), "s")
    metrics = {
        "graphs.find_induced.self_s": layer("graphs.find_induced"),
        "graphs.find_induced.calls_per_op": (per_op(calls["find_induced"]), "count"),
        "graphs.find_split_partition.self_s": layer("graphs.find_split_partition"),
        "decomposition.self_s": layer("decomposition"),
        "decomposition.tree_nodes_per_op": (per_op(tr.counts["tree_nodes"]), "count"),
        "cliquewidth.build.self_s": layer("cliquewidth.build"),
        "cliquewidth.evaluate.self_s": layer("cliquewidth.evaluate"),
        "cliquewidth.evaluate.calls_per_op": (per_op(calls["evaluate"]), "count"),
        "cliquewidth.format.self_s": layer("cliquewidth.format"),
        "cliquewidth.parse.self_s": layer("cliquewidth.parse"),
        "cliquewidth.expression_tokens_per_op":
            (per_op(tr.counts["expression_tokens"]), "count"),
        "domination.dp.self_s": layer("domination.dp"),
        "domination.pipeline.self_s": layer("domination.pipeline"),
        "domination.brute_force.calls": (calls["brute_force"], "count"),
        "threshold.asummability.self_s": layer("threshold.asummability"),
        "threshold.dependence_table.self_s": layer("threshold.dependence_table"),
        "threshold.dependence_table.calls_per_op":
            (per_op(calls["dependence_table"]), "count"),
        "threshold.witness.self_s": layer("threshold.witness"),
        "threshold.verify.self_s": layer("threshold.verify"),
        "lp.solve.self_s": layer("lp.solve"),
        "lp.solve.calls_per_op": (per_op(calls["solve_nonnegative_feasibility"]), "count"),
        "lp.solve.rows_per_call": (_ratio(tr.counts["lp_rows"],
                                          calls["solve_nonnegative_feasibility"]), "count"),
        "hypergraph.dual_masks.self_s": layer("hypergraph.dual_masks"),
        "hypergraph.dual_masks.sets_per_call":
            (_ratio(tr.counts["dual_sets"], calls["dual_masks"]), "count"),
        "hypergraph.predicates.self_s": layer("hypergraph.predicates"),
        "hypergraph.decompose.self_s": layer("hypergraph.decompose"),
        "hypergraph.recompose.self_s": layer("hypergraph.recompose"),
        "hypergraph.tree_depth_max": (tr.depth_max, "count"),
        "textio.self_s": layer("textio"),
        "cli.self_s": layer("cli"),
        "generators.self_s": (generators_s, "s"),
        "generators.accept_ratio": (accept_ratio, "ratio"),
        "trace.overhead_frac": (tr.overhead_s / traced_s, "ratio"),
        "unattributed_s": (per_op(traced_s - tr.span_total() - tr.overhead_s), "s"),
    }
    info = {"distinct_ops": len(ops), "setup_wall_s": setup_wall,
            "traced_s": traced_s, "most_negative_gap_s": worst_gap,
            "failed_frac": failed / done}
    # self times plus overhead plus unattributed time make up each op;
    # a negative remainder would mean a span was counted twice
    consistent = worst_gap > -1e-6
    if not consistent:
        verifier.reasons["trace accounting: spans exceed op time"] = 1
    return _result(done, failed, metrics, info, verifier.reasons, consistent)


def _ratio(a, b):
    return a / b if b else 0.0


def _result(attempted, failed, metrics, info, reasons, consistent=True) -> dict:
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and consistent,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": info, "reasons": reasons}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the program's checks use assert", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sperner", "__init__.py")):
        print(f"error: no sperner package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        measure_run = measure_traced if args.trace else measure
        res = measure_run(args.workload, args.seed, args.seconds, run_dir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} ops, {res['failed']} failed")
    for k, v in sorted(res["info"].items()):
        print(f"  {k} = {v}")
    for reason, count in sorted(res["reasons"].items()):
        print(f"  FAILED x{count}: {reason}")
    for k, m in res["metrics"].items():
        print(f"  {k} {m['value']} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

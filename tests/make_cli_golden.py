"""Record the golden CLI fixture read by ``test_cli_golden.py``.

Every case is one ``sperner`` command on seeded input files; the fixture
stores the input texts, the argv (``{in}`` stands for the path of the
input file ``in.*``) and the exit code, stdout and stderr the command
produced.
Run from the repository root to rewrite the fixture:

    PYTHONPATH=src python3 tests/make_cli_golden.py

Rewrite it only when a change of CLI output is intended and explained.
With ``--diff`` the cases are recorded and compared with the committed
fixture instead: per command, the number of cases whose input files,
exit code, stdout or stderr changed is printed, and nothing is written.
The exit code is then 1 when any case changed or the case count did,
so CI can run it after the tests:

    PYTHONPATH=src python3 tests/make_cli_golden.py --diff
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

FIXTURE = Path(__file__).with_name("cli_golden.json")
KINDS = ("split-H", "split-Hbar", "bigraph", "cobigraph")


def run_case(main, case: dict, workdir: str) -> dict:
    """Write the case's input files, run its argv in-process, return the result."""
    paths = {}
    for name, text in case["files"].items():
        path = paths[name.split(".")[0]] = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    argv = [a.format(**paths) if a.startswith("{") else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cases():
    from sperner import generators as gen
    from sperner import textio
    from sperner.generators import random_graph
    from sperner.graphs import PATTERNS, Graph, edge_clique_split_of
    from sperner.hypergraph import Hypergraph

    def graph_case(argv, g):
        text = g if isinstance(g, str) else textio.write_graph(g)
        return {"argv": argv + ["{in}"], "files": {"in.graph": text}}

    def hyp_case(argv, h):
        text = h if isinstance(h, str) else textio.write_hypergraph(h)
        return {"argv": argv + ["{in}"], "files": {"in.hyp": text}}

    cases = []
    rng = random.Random(20261018)

    # decompose: 1-Sperner hypergraphs, and families that are not 1-Sperner
    for n in (0, 1, 2, 3, 5, 8, 12, 16):
        cases.append(hyp_case(["decompose"], gen.random_one_sperner(n, rng)))
    for _ in range(6):
        n = rng.randint(2, 6)
        masks = sorted({rng.randrange(1 << n) for _ in range(rng.randint(2, 5))})
        cases.append(hyp_case(["decompose"], Hypergraph.from_masks(range(n), masks)))

    # in-class graphs of each kind
    makers = {
        "split-H": lambda size: gen.random_split_h_free(size, rng).g,
        "split-Hbar": lambda size: gen.random_split_hbar_free(size, rng).g,
        "bigraph": lambda size: gen.random_bigraph_2p3_free(size, rng).g,
        "cobigraph": lambda size: gen.random_cobigraph(size, rng),
    }
    in_class = {k: [make(size) for size in (1, 2, 4, 7, 10, 13)]
                for k, make in makers.items()}
    for kind, graphs in in_class.items():
        for g in graphs:
            cases.append(graph_case(["decompose", "--kind", kind], g))
        cases.append(graph_case(["--format", "records", "decompose",
                                 "--kind", kind], graphs[3]))

    # out-of-class inputs for every kind: the pattern catalog, random
    # graphs, random split and bipartite graphs and their complements, and
    # the in-class graphs of the other kinds
    def random_split(n):
        k = rng.randint(1, n - 1)
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]
        return Graph(n, edges)

    def random_bipartite(n):
        a = rng.randint(1, n - 1)
        return Graph(n, [(u, v) for u in range(a) for v in range(a, n)
                         if rng.random() < 0.4])

    p7 = Graph(7, [(i, i + 1) for i in range(6)])
    others = list(PATTERNS.values()) + [p7, p7.complement()]
    others += [random_graph(n, rng, p) for n, p in ((5, 0.3), (6, 0.5), (7, 0.7))]
    others += [random_split(n) for n in (4, 5, 6, 7, 8, 9)]
    bip = [random_bipartite(n) for n in (4, 5, 6, 7, 8, 9)]
    others += bip + [g.complement() for g in bip]
    for kind in KINDS:
        foreign = [g for k, gs in in_class.items() if k != kind for g in gs[4:5]]
        for i, g in enumerate(others + foreign):
            cases.append(graph_case(["decompose", "--kind", kind], g))
            if i % 3 == 0:
                cases.append(graph_case(["cwd", "--kind", kind], g))

    # cwd; record() adds an eval case for each printed expression
    for kind, graphs in in_class.items():
        for g in graphs[:5]:
            cases.append(graph_case(["cwd", "--kind", kind], g))
    # dominate, text and records, in-class (dp) and general (brute)
    split_h = [gen.random_split_h_free(size, rng).g for size in (1, 3, 6, 9, 12, 15)]
    for g in split_h + others[::3]:
        cases.append(graph_case(["dominate"], g))
    for g in split_h[1:4]:
        cases.append(graph_case(["--format", "records", "dominate"], g))
    for g in split_h[2:4]:
        for variant in ("dominating", "total", "connected"):
            for method in ("dp", "brute"):
                cases.append(graph_case(["dominate", "--variant", variant,
                                         "--method", method], g))
    for g in others[5:20:2]:
        cases.append(graph_case(["dominate", "--method", "dp"], g))
    cases.append(graph_case(["--max-n", "2", "dominate", "--method", "brute"],
                            split_h[-1]))
    # dominate at n >= 12, where ids of 10 and more sort apart as text and
    # as numbers: four draws of one seeded stream whose answers turn on the
    # DP's tie-break between witnesses of equal size
    tie_rng = random.Random(20261019)
    ties = [edge_clique_split_of(gen.random_one_sperner(12, tie_rng)).g
            for _ in range(47)]
    for g in (ties[2], ties[11], ties[46]):
        cases.append(graph_case(["dominate"], g))
    cases.append(graph_case(["--format", "records", "dominate"], ties[3]))

    # hyp-check: 1-Sperner, random families, degenerate inputs
    for n in (0, 1, 3, 5, 7):
        h = gen.random_one_sperner(n, rng)
        cases.append(hyp_case(["hyp-check"], h))
        cases.append(hyp_case(["--format", "records", "hyp-check"], h))
    for _ in range(8):
        n = rng.randint(1, 6)
        masks = sorted({rng.randrange(1 << n) for _ in range(rng.randint(1, 6))})
        cases.append(hyp_case(["hyp-check"], Hypergraph.from_masks(range(n), masks)))
    for text in ("0 0\n", "0 1\n0\n", "2 2\n0\n2 0 1\n", "3 3\n2 0 1\n2 1 2\n2 0 2\n"):
        cases.append(hyp_case(["hyp-check"], text))

    # generate
    for kind in ("glue-tree", "in-class-split", "in-class-bigraph"):
        for size in (0, 1, 5, 9):
            for seed in (1, 177):
                cases.append({"argv": ["--seed", str(seed), "generate", "--kind",
                                       kind, "--size", str(size)], "files": {}})

    # parse and usage errors
    cases.append(hyp_case(["decompose"], "2 1\n3 0 1\n"))
    cases.append(graph_case(["decompose", "--kind", "bigraph"], "2 1\n1 0\n"))
    cases.append(graph_case(["cwd", "--kind", "split-H"], "3 x\n"))
    cases.append(graph_case(["decompose", "--kind", "nope"], "1 0\n"))
    cases.append(graph_case(["cwd", "--kind", "hypergraph"], "1 0\n"))
    cases.append({"argv": ["eval", "{in}"],
                  "files": {"in.expr": "(union (leaf 1 v0) (leaf 2 v0))"}})
    return cases


def record(main) -> list[dict]:
    os.environ["COLUMNS"] = "80"
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for case in _cases():
            case.update(run_case(main, case, workdir))
            out.append(case)
            if case["argv"][0] == "cwd" and case["code"] == 0:
                ev = {"argv": ["eval", "{in}"],
                      "files": {"in.expr": case["stdout"]}}
                ev.update(run_case(main, ev, workdir))
                out.append(ev)
    return out


def command_of(argv: list) -> str:
    """The subcommand of an argv; every global option takes one value."""
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i]


def diff(old: list, new: list) -> list[str]:
    """Per command, how many cases changed between two recordings, and in
    which fields; cases are paired by their place in the recording."""
    fields = ("argv", "files", "code", "stdout", "stderr")
    total, changed, by_field = Counter(), Counter(), defaultdict(Counter)
    for a, b in zip(old, new):
        cmd = command_of(b["argv"])
        moved = [f for f in fields if a[f] != b[f]]
        total[cmd] += 1
        changed[cmd] += bool(moved)
        by_field[cmd].update(moved)
    lines = []
    if len(old) != len(new):
        lines.append(f"case count {len(old)} -> {len(new)}; "
                     f"the first {min(len(old), len(new))} are compared")
    for cmd in sorted(total):
        detail = ", ".join(f"{f} {n}" for f, n in by_field[cmd].items())
        lines.append(f"{cmd}: {changed[cmd]} of {total[cmd]} cases changed"
                     + (f" ({detail})" if detail else ""))
    return lines


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        raise SystemExit("usage: make_cli_golden.py [--diff]")
    from sperner.cli import main
    cases = record(main)
    if sys.argv[1:]:
        committed = json.loads(FIXTURE.read_text(encoding="utf-8"))
        print("\n".join(diff(committed, cases)))
        raise SystemExit(int(committed != cases))
    else:
        FIXTURE.write_text("[\n" + ",\n".join(json.dumps(c, sort_keys=True)
                                                 for c in cases) + "\n]\n",
                           encoding="utf-8")
        print(f"{len(cases)} cases, {FIXTURE.stat().st_size} bytes", file=sys.stderr)

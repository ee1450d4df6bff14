"""Checks in the package must not be ``assert`` statements, which
``python -O`` strips; the CLI must give the same output under ``-O``."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import sperner
from sperner.cli import main
from sperner.generators import random_one_sperner, random_split_h_free
from sperner.textio import write_graph, write_hypergraph

PACKAGE = Path(sperner.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _optimized_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cwd_and_dominate_under_optimize_flag(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(write_graph(random_split_h_free(12, random.Random(5)).g))
    env = _optimized_env()
    for argv in (["cwd", "--kind", "split-H", str(path)], ["dominate", str(path)]):
        proc = subprocess.run([sys.executable, "-O", "-m", "sperner.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_hyp_check_under_optimize_flag(tmp_path, capsys):
    path_threshold = tmp_path / "t.hyp"
    path_threshold.write_text(write_hypergraph(random_one_sperner(9, random.Random(5))))
    path_p4 = tmp_path / "p4.hyp"
    path_p4.write_text("4 3\n2 0 1\n2 1 2\n2 2 3\n")
    env = _optimized_env()
    for path, want_code in ((path_threshold, 0), (path_p4, 1)):
        argv = ["hyp-check", str(path)]
        proc = subprocess.run([sys.executable, "-O", "-m", "sperner.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code = main(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, capsys.readouterr().out, "")
        assert code == want_code


def test_decompose_under_optimize_flag(tmp_path, capsys):
    path_in = tmp_path / "in.hyp"
    path_in.write_text(write_hypergraph(random_one_sperner(40, random.Random(5))))
    path_k4 = tmp_path / "k4.hyp"
    path_k4.write_text("4 6\n2 0 1\n2 0 2\n2 0 3\n2 1 2\n2 1 3\n2 2 3\n")
    env = _optimized_env()
    for path, want_code, want_err in (
            (path_in, 0, ""),
            (path_k4, 2, "error: not 1-Sperner: hyperedges [0, 1] and [2, 3]\n")):
        argv = ["decompose", str(path)]
        proc = subprocess.run([sys.executable, "-O", "-m", "sperner.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code = main(argv)
        out = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)
        assert (code, out.err) == (want_code, want_err)

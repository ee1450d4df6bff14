"""A negative vertex count in a graph file header, a negative
``generate --size``, or a ``sweep --max-n`` below the smallest size the
suite draws, is a typed error with exit code 2, not a traceback;
``generate --size 0`` gives the empty instance of every kind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sperner
import sperner.cli as cli
from sperner.textio import ParseError, read_graph, read_hypergraph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ("dominate",),
    ("decompose", "--kind", "bigraph"),
    ("cwd", "--kind", "cobigraph"),
], ids=["dominate", "decompose-bigraph", "cwd-cobigraph"])
def test_negative_vertex_count_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "neg.graph"
    path.write_text("-1 0\n")
    assert run_cli(capsys, *argv, str(path)) == (
        2, "", "error: line 1: header values must be non-negative\n")


@pytest.mark.parametrize("read", [read_graph, read_hypergraph])
@pytest.mark.parametrize("text", ["-1 0\n", "2 -1\n"])
def test_both_readers_reject_negative_headers(read, text):
    with pytest.raises(ParseError, match="line 1: header values must be non-negative"):
        read(text)


@pytest.mark.parametrize("kind", ["glue-tree", "in-class-split", "in-class-bigraph"])
def test_generate_negative_size_exits_2(capsys, kind):
    assert run_cli(capsys, "generate", "--kind", kind, "--size", "-3") == (
        2, "", "error: --size must be non-negative, got -3\n")


@pytest.mark.parametrize("seed", ["1", "177"])
@pytest.mark.parametrize("kind", ["glue-tree", "in-class-split", "in-class-bigraph"])
def test_generate_size_zero_is_the_empty_instance(capsys, kind, seed):
    assert run_cli(capsys, "--seed", seed, "generate", "--kind", kind, "--size", "0") == (
        0, f"# kind={kind} size=0 seed={seed}\n0 0\n", "")


# (suite, the smallest size it draws)
SWEEPS_THAT_DRAW = [("decomposition-roundtrip", 0), ("graph-decomposition", 1),
                    ("cwd-roundtrip", 1)]


@pytest.mark.parametrize("suite, least", SWEEPS_THAT_DRAW)
def test_sweep_max_n_below_the_smallest_drawn_size_exits_2(capsys, suite, least):
    for max_n in (least - 1, -5):
        assert run_cli(capsys, "--max-n", str(max_n), "sweep", "--suite", suite) == (
            2, "", f"error: suite {suite} needs max_n >= {least}, got {max_n}\n")


@pytest.mark.parametrize("suite, least", SWEEPS_THAT_DRAW)
def test_sweep_max_n_below_the_smallest_drawn_size_in_a_subprocess(suite, least):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sperner.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["--max-n", str(least - 1), "sweep", "--suite", suite]
    proc = subprocess.run([sys.executable, "-m", "sperner.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: suite {suite} needs max_n >= {least}, got {least - 1}\n"

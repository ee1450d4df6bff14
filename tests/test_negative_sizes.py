"""A negative vertex count in a graph file header, or a negative
``generate --size``, is a typed error with exit code 2, not a traceback;
``generate --size 0`` gives the empty instance of every kind."""

import pytest

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

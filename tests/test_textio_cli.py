"""File formats, witness serialization, and the command-line interface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sperner
from oracles import read_hypergraph_by_positions
from sperner.cli import main
from sperner.generators import random_one_sperner
from sperner.graphs import Graph
from sperner.hypergraph import Hypergraph
from sperner.textio import (ParseError, read_graph, read_hypergraph,
                            write_graph, write_hypergraph)


class TestHypergraphFormat:
    def test_roundtrip(self):
        h = Hypergraph(range(4), [{0, 1}, set(), {2, 3}])
        assert read_hypergraph(write_hypergraph(h)) == h

    def test_empty_hyperedge_line(self):
        h = read_hypergraph("2 1\n0\n")
        assert h.edges == (frozenset(),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            read_hypergraph("2 1\n3 0 1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_hypergraph("2 1\n1 5\n")
        with pytest.raises(ParseError):
            read_hypergraph("")
        with pytest.raises(ParseError):
            read_hypergraph("2 2\n1 0\n1 0\n")

    def test_comments_allowed(self):
        h = read_hypergraph("# a comment\n2 1\n2 0 1\n")
        assert h.m == 1

    @pytest.mark.parametrize("text, edges", [
        ("3 1\n2 +1 2\n", ({1, 2},)),
        ("3 1\n02 0 2\n", ({0, 2},)),
        ("3 2\n2 1 2\n0\n", (set(), {1, 2})),
    ])
    def test_non_canonical_spellings_are_read_as_integers(self, text, edges):
        assert read_hypergraph(text) == Hypergraph(range(3), edges)

    @pytest.mark.parametrize("text, message", [
        ("3 1\n2 1 01\n", "line 2: repeated vertex inside a hyperedge"),
        ("3 1\n2 0 -0\n", "line 2: repeated vertex inside a hyperedge"),
        ("3 1\n2 1 1\n", "line 2: repeated vertex inside a hyperedge"),
        ("3 1\n2 7 x\n", "line 2: hyperedge line must contain integers"),
        ("3 1\n2 x 7\n", "line 2: hyperedge line must contain integers"),
        ("3 1\n2 -1 1\n", "line 2: vertex -1 out of range 0..2"),
        ("3 1\n1 3\n", "line 2: vertex 3 out of range 0..2"),
        ("3 1\n3 0 1\n", "line 2: declared size 3 but 2 vertices follow"),
        ("3 1\nx 0 1\n", "line 2: hyperedge line must contain integers"),
        ("3 2\n1 0\n1 00\n", "line 1: duplicate hyperedges"),
    ])
    def test_reader_errors(self, text, message):
        with pytest.raises(ParseError) as exc:
            read_hypergraph(text)
        assert str(exc.value) == message


def _read_outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return type(exc), str(exc)


class TestReaderAgainstPositionReader:
    """The one-table reader against the reader that looked up positions
    and shifted them to bits in a second pass."""

    def test_seeded_texts(self):
        rng = random.Random(150)
        for _ in range(20):
            text = write_hypergraph(random_one_sperner(150, rng))
            assert read_hypergraph(text) == read_hypergraph_by_positions(text)

    @pytest.mark.parametrize("line", [
        "2 0149 3", "3 7 0149 12", "3 +5 0 7", "1 +5",
        "2 149 149", "3 0 149 149", "2 149 0149",
    ])
    def test_fallback_lines(self, line):
        h = random_one_sperner(150, random.Random(7))
        _, *rows = write_hypergraph(h).splitlines()
        rows.insert(len(rows) // 2, line)
        text = "\n".join([f"150 {len(rows)}", *rows]) + "\n"
        assert (_read_outcome(read_hypergraph, text)
                == _read_outcome(read_hypergraph_by_positions, text))


class TestGraphFormat:
    def test_roundtrip(self):
        g = Graph(4, [(0, 1), (2, 3), (0, 3)])
        assert read_graph(write_graph(g)) == g

    def test_rejects_loops_duplicates_order(self):
        with pytest.raises(ParseError):
            read_graph("2 1\n0 0\n")
        with pytest.raises(ParseError):
            read_graph("2 2\n0 1\n0 1\n")
        with pytest.raises(ParseError):
            read_graph("2 1\n1 0\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_hyp_check_k4(self, tmp_path, capsys):
        k4 = Hypergraph(range(4), [{i, j} for i in range(4) for j in range(i + 1, 4)])
        path = tmp_path / "k4.hg"
        path.write_text(write_hypergraph(k4))
        code, out, _ = run_cli(capsys, "hyp-check", str(path))
        assert code == 1  # some predicates are false
        assert "1-sperner: false" in out
        assert "threshold: true" in out

    def test_hyp_check_single_edge_all_true(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("3 1\n2 0 1\n")
        code, out, _ = run_cli(capsys, "hyp-check", str(path))
        assert code == 1  # conformal fails: vertex 2 is uncovered
        path.write_text("2 1\n2 0 1\n")
        code, out, _ = run_cli(capsys, "hyp-check", str(path))
        assert code == 0

    def test_hyp_check_empty_edge(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("1 2\n0\n1 0\n")
        code, out, _ = run_cli(capsys, "hyp-check", str(path))
        assert "sperner: false" in out
        assert "dually-sperner: true" in out

    def test_records_format(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("2 1\n2 0 1\n")
        code, out, _ = run_cli(capsys, "--format", "records", "hyp-check", str(path))
        recs = [json.loads(line) for line in out.splitlines()]
        assert {r["predicate"] for r in recs} >= {"sperner", "threshold"}

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("nonsense\n")
        code, _, err = run_cli(capsys, "hyp-check", str(path))
        assert code == 2 and "error" in err

    def test_decompose_hypergraph(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("3 2\n2 0 1\n2 1 2\n")
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0 and "z=0" in out

    def test_decompose_rejects_out_of_class(self, tmp_path, capsys):
        k4 = Hypergraph(range(4), [{i, j} for i in range(4) for j in range(i + 1, 4)])
        path = tmp_path / "k4.hg"
        path.write_text(write_hypergraph(k4))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2 and "1-Sperner" in err

    def test_cwd_eval_roundtrip(self, tmp_path, capsys):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
        gpath = tmp_path / "g.graph"
        gpath.write_text(write_graph(g))
        code, out, _ = run_cli(capsys, "cwd", str(gpath), "--kind", "split-H")
        assert code == 0
        epath = tmp_path / "g.expr"
        epath.write_text(out)
        code, out2, _ = run_cli(capsys, "eval", str(epath))
        assert code == 0 and out2 == write_graph(g)

    def test_dominate(self, tmp_path, capsys):
        path = tmp_path / "c4.graph"
        path.write_text(write_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
        code, out, _ = run_cli(capsys, "dominate", str(path), "--method", "brute")
        assert code == 0
        assert any(line.startswith("dominating 2") for line in out.splitlines())

    def test_dominate_total_infeasible(self, tmp_path, capsys):
        path = tmp_path / "k1.graph"
        path.write_text(write_graph(Graph(1, [])))
        code, out, _ = run_cli(capsys, "dominate", str(path), "--variant", "total")
        assert code == 0 and "total infeasible" in out

    def test_dominate_dp_matches_brute(self, tmp_path, capsys):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
        path = tmp_path / "g.graph"
        path.write_text(write_graph(g))
        _, out_dp, _ = run_cli(capsys, "dominate", str(path), "--method", "dp")
        _, out_brute, _ = run_cli(capsys, "dominate", str(path), "--method", "brute")
        sizes = lambda s: [line.split()[1] for line in s.splitlines()]
        assert sizes(out_dp) == sizes(out_brute)

    def test_generate_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "--seed", "5", "generate", "--size", "9")
        code, out2, _ = run_cli(capsys, "--seed", "5", "generate", "--size", "9")
        assert code == 0 and out1 == out2 and "seed=5" in out1

    def test_generate_in_class_split(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--seed", "3", "generate",
                               "--kind", "in-class-split", "--size", "10")
        assert code == 0
        body = "\n".join(line for line in out.splitlines()
                         if not line.startswith("#")) + "\n"
        g = read_graph(body)
        from sperner.decomposition import clique_sperner_partition
        from sperner.graphs import find_induced, pattern
        assert clique_sperner_partition(g) is not None
        assert find_induced(g, pattern("H")) is None

    def test_sweep_fixtures(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--suite", "fixtures")
        assert code == 0 and "PASS" in out

    def test_sweep_records(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "records", "sweep",
                               "--suite", "fixtures")
        rec = json.loads(out)
        assert rec["passed"] is True


P4_EXPR = ("(adde 2 3 (union (rel 3 2 (rel 2 1 (adde 2 3 (union (adde 1 2 "
           "(union (leaf 1 v0) (leaf 2 v1))) (leaf 3 v2))))) (leaf 3 v3)))")


class TestGoldenP4:
    def test_eval_p4_expression(self, tmp_path, capsys):
        path = tmp_path / "p4.expr"
        path.write_text(P4_EXPR)
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        assert out == "4 3\n0 1\n1 2\n2 3\n"

    def test_cwd_roundtrip_on_p4(self, tmp_path, capsys):
        gpath = tmp_path / "p4.graph"
        gtext = "4 3\n0 1\n1 2\n2 3\n"
        gpath.write_text(gtext)
        code, out, _ = run_cli(capsys, "cwd", str(gpath), "--kind", "split-H")
        assert code == 0
        epath = tmp_path / "p4.expr"
        epath.write_text(out)
        code, out2, _ = run_cli(capsys, "eval", str(epath))
        assert code == 0 and out2 == gtext

    def test_generate_size_zero_is_empty_hypergraph(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--size", "0")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0 and body == ["0 0"]


@pytest.mark.parametrize("ident", ["v²", "²", "-²", "١"])
def test_eval_non_ascii_digit_id_exits_2_without_traceback(tmp_path, ident):
    """Such an id is a string id, so the graph is not on 0..n-1: a typed
    error, exit 2, one ``error:`` line."""
    path = tmp_path / "e.expr"
    path.write_text(f"(leaf 1 {ident})", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sperner.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "sperner.cli", "eval", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: vertex ids are not contiguous 0-based integers\n"

"""Every self-check of the package raises a typed error, and the CLI maps
it to exit code 2 with an ``error:`` line. Each test corrupts the producer
a check guards and expects the check to fire."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sperner
import sperner.cli as cli
import sperner.decomposition as decomposition
import sperner.domination as domination
import sperner.hypergraph as hypergraph
from sperner.cliquewidth import (ExpressionError, ExpressionParseError, Leaf,
                                 format_expression, parse_expression)
from sperner.decomposition import GRAPH_CLASSES, DecompLeaf, DecompNode, MPartition
from sperner.domination import DominationError, DominationResult
from sperner.generators import random_one_sperner
from sperner.graphs import Graph
from sperner.hypergraph import Hypergraph, HypergraphError
from sperner.textio import write_graph, write_hypergraph
from sperner.threshold import (ThresholdError, ThresholdWitness, k_asummability_witness,
                               threshold_certificate, threshold_witness)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# regular and not threshold (the LP is infeasible), and regular still with
# isolated vertices added: each is dominated by every other vertex
REGULAR_NOT_THRESHOLD = [{0, 1}, {0, 2}, {0, 3}, {1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5}]


def test_hyp_check_beyond_asummability_cap_exits_2(tmp_path, capsys):
    h = Hypergraph(range(21), REGULAR_NOT_THRESHOLD)
    assert threshold_certificate(h) is None
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(h))
    assert run_cli(capsys, "hyp-check", str(path)) == (
        2, "", "error: asummability testing capped at 20 vertices\n")


def test_asummability_search_beyond_its_cap_raises():
    p21 = Hypergraph(range(21), [{i, i + 1} for i in range(20)])
    with pytest.raises(ThresholdError, match="capped at 20 vertices"):
        k_asummability_witness(p21, 2)


def test_decompose_recompose_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(random_one_sperner(6, random.Random(1))))
    monkeypatch.setattr(cli, "recompose", lambda tree: Hypergraph([], []))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the decomposition tree does not recompose")


def test_cwd_evaluate_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.graph"
    path.write_text(write_graph(Graph(3, [(0, 1), (1, 2)])))
    assert run_cli(capsys, "cwd", "--kind", "split-H", str(path))[0] == 0
    monkeypatch.setattr(cli, "built", lambda tree: Leaf(1, 0))
    code, out, err = run_cli(capsys, "cwd", "--kind", "split-H", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the 5-expression does not evaluate")


def _swap_root_parts_3_and_4(tree):
    z, p1, p2, p3, p4 = tree.partition.parts
    part = MPartition((z, p1, p2, p4, p3), tree.partition.a, tree.partition.b)
    return DecompNode(part, tree.left, tree.right)


def _flip_root_tag(tree):
    part = tree.partition
    return DecompNode(MPartition(part.parts, 1 - part.a, part.b), tree.left, tree.right)


def _repeat_z_in_the_left_leaf(tree):
    return DecompNode(tree.partition, DecompLeaf(tree.z, True), tree.right)


@pytest.mark.parametrize("kind", list(GRAPH_CLASSES))
@pytest.mark.parametrize("corrupt, error", [
    (_swap_root_parts_3_and_4, "error: node at z={z} violates its matrix at ({z}, {v})\n"),
    (_flip_root_tag, "error: node tagged M[{a2},{b}], expected M[{a},{b}]\n"),
    (_repeat_z_in_the_left_leaf, "error: tree covers {covered}\n"),
], ids=["parts-swapped", "tag-flipped", "vertex-repeated"])
def test_decompose_tree_check(tmp_path, capsys, monkeypatch, kind, corrupt, error):
    """``decompose --kind K`` checks the tree it prints: every node's tag and
    matrix, and that the z's and leaves cover the vertices exactly once."""
    path = tmp_path / "g.graph"
    path.write_text(write_graph(Graph(3, [(1, 2)])))
    assert run_cli(capsys, "decompose", "--kind", kind, str(path))[0] == 0
    real_core = decomposition._decompose_core
    seen = []

    def corrupt_core(*args):
        tree = real_core(*args)
        seen.append(tree)
        return corrupt(tree)

    monkeypatch.setattr(decomposition, "_decompose_core", corrupt_core)
    code, out, err = run_cli(capsys, "decompose", "--kind", kind, str(path))
    # in every class the root's left child is an empty leaf, and one of
    # parts 3 and 4 is empty: after the swap, part 3 holds the other side's
    # one vertex, which is not adjacent to z
    assert seen[0].left.vertex is None
    root = seen[0].partition
    v = (root.parts[3] | root.parts[4]).bit_length() - 1
    assert (code, out) == (2, "")
    assert err == error.format(z=root.z, v=v, a=root.a, a2=1 - root.a, b=root.b,
                               covered=sorted([0, 1, 2, root.z]))


def test_generate_one_sperner_check(capsys, monkeypatch):
    bad = Hypergraph(range(2), [{0}, {0, 1}])
    monkeypatch.setattr(cli, "random_one_sperner", lambda n, rng: bad)
    code, _, err = run_cli(capsys, "generate", "--kind", "glue-tree", "--size", "2")
    assert code == 2
    assert err.startswith("error: the generator produced a hypergraph that is not 1-Sperner")


def test_threshold_witness_verification_check(tmp_path, capsys, monkeypatch):
    h = Hypergraph(range(2), [{0, 1}])
    monkeypatch.setattr(ThresholdWitness, "verify", lambda self, h: False)
    with pytest.raises(ThresholdError, match="failed its own verification"):
        threshold_witness(h)
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(h))
    code, out, err = run_cli(capsys, "hyp-check", str(path))
    assert (code, out) == (2, "")
    assert err == "error: threshold witness failed its own verification\n"


def test_gluing_vertex_check(monkeypatch):
    monkeypatch.setattr(hypergraph, "_split_masks", lambda masks, zb: zb)
    with pytest.raises(HypergraphError, match="no gluing vertex"):
        hypergraph.decompose(Hypergraph(range(1), [{0}]))


def test_brute_force_check(monkeypatch):
    monkeypatch.setattr(domination, "is_dominating", lambda g, dset, variant="dominating": False)
    with pytest.raises(DominationError, match="no dominating set"):
        domination.brute_force(Graph(2, [(0, 1)]), "dominating")


@pytest.mark.parametrize("fake_dp", [
    lambda e, k, by_rank, nat: {},
    # key 0: no class selected, none left undominated; empty witness mask
    lambda e, k, by_rank, nat: {0: (0, 0)},
], ids=["no-complete-state", "witness-dominates-nothing"])
def test_dp_witness_check(monkeypatch, fake_dp):
    monkeypatch.setattr(domination, "_dp", fake_dp)
    with pytest.raises(DominationError, match="no verified witness"):
        domination.dp_dominating_set(Leaf(1, 0))


@pytest.mark.parametrize("variant", domination.VARIANTS)
def test_h_free_split_pipeline_check(monkeypatch, variant):
    monkeypatch.setattr(domination, "_component_kside", lambda g, comp, imask: frozenset())
    with pytest.raises(DominationError, match="witness fails verification"):
        domination.solve_h_free_split(Graph(2, [(0, 1)]), variant)


@pytest.mark.parametrize("variant", domination.VARIANTS)
def test_split_reduce_check(monkeypatch, variant):
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # {0} is not dominating; moved into the clique side it becomes {1}
    monkeypatch.setattr(domination, "brute_force",
                        lambda g, v: DominationResult("dominating", 1, frozenset({0})))
    with pytest.raises(DominationError, match="witness fails verification"):
        domination.split_reduce(p4, variant)


# one more digit than Python's default limit on int-string conversion
LONG_DIGITS = "1" * 5000


@pytest.mark.parametrize("text, line, column", [
    (f"(leaf 1 v{LONG_DIGITS})", 1, 9),
    (f"(union (leaf 1 v0)\n  (leaf 2 -{LONG_DIGITS}))", 2, 11),
    (f"(leaf 1 {LONG_DIGITS})", 1, 9),
], ids=["v-literal", "negative", "bare"])
def test_long_vertex_literal_is_a_parse_error(text, line, column):
    with pytest.raises(ExpressionParseError, match="more digits than an int reads") as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("vertex", [10 ** 5000, -(10 ** 5000), LONG_DIGITS],
                         ids=["int", "negative-int", "digit-string"])
def test_vertex_id_that_does_not_print_is_an_expression_error(vertex):
    with pytest.raises(ExpressionError):
        format_expression(Leaf(1, vertex))


def test_eval_of_a_long_vertex_literal_exits_2_without_a_traceback(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(f"(leaf 1 v{LONG_DIGITS})\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sperner.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "sperner.cli", "eval", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: line 1, column 9: vertex id of 5001 characters has more digits "
        "than an int reads"]

"""k-expressions far deeper than the recursion limit go through the parser,
the printer, the evaluator and the domination DP, and a deep in-class
split graph through the whole domination pipeline and ``dominate``.

The deep expressions are built as postfix op lists, in linear time: the
node constructors copy their operands' ops, so building them node by node
would cost O(depth^2). At small depths they equal the constructor-built
copies."""

import json
import random
import sys

import pytest

import sperner.cli as cli
from oracles import gluing_chain_by_pair_check
from sperner.cliquewidth import (ADDE, LEAF, REL, UNION, AddEdges, Leaf,
                                 Relabel, Union_, _view, evaluate,
                                 expression_length, format_expression,
                                 max_label, parse_expression)
from sperner.domination import (dp_dominating_set, is_dominating,
                                solve_h_free_split_all)
from sperner.graphs import Graph, edge_clique_split_of
from sperner.hypergraph import Hypergraph
from sperner.textio import write_graph

CHAIN_DEPTH = 5000
COMB_LEAVES = 3000


def chain_ops(depth: int):
    """The op of each of the ``depth - 1`` alternating relabel and
    add-edges nodes above the union of ``rel_adde_chain``, innermost
    first."""
    return [(ADDE, 1, 2) if d % 2 else (REL, *((1, 3), (3, 1))[d // 2 % 2])
            for d in range(depth - 1)]


def rel_adde_chain(depth: int = CHAIN_DEPTH):
    """An edge 0-1 under ``depth`` alternating add-edges and relabel
    nodes: (adde 1 2 (rel 3 1 (adde 1 2 (rel 1 3 ... (union ...)))))."""
    return _view([(LEAF, 1, 0), (LEAF, 2, 1), (UNION,), *chain_ops(depth)])


def union_comb(leaves: int = COMB_LEAVES):
    """A star on ``leaves`` vertices: one add-edges over a left comb of
    unions, centre 0 labeled 1, every other leaf labeled 2."""
    ops = [(LEAF, 1, 0)]
    for v in range(1, leaves):
        ops += ((LEAF, 2, v), (UNION,))
    ops.append((ADDE, 1, 2))
    return _view(ops)


def rel_adde_chain_by_constructor(depth: int):
    e = Union_(Leaf(1, 0), Leaf(2, 1))
    for code, a, b in chain_ops(depth):
        e = AddEdges(a, b, e) if code == ADDE else Relabel(a, b, e)
    return e


def union_comb_by_constructor(leaves: int):
    e = Leaf(1, 0)
    for v in range(1, leaves):
        e = Union_(e, Leaf(2, v))
    return AddEdges(1, 2, e)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 50])
def test_list_built_expressions_equal_the_constructor_built_ones(size):
    for by_list, by_constructor in ((rel_adde_chain, rel_adde_chain_by_constructor),
                                    (union_comb, union_comb_by_constructor)):
        e, want = by_list(size), by_constructor(size)
        assert e == want and hash(e) == hash(want)
        assert format_expression(e) == format_expression(want)
        assert repr(e) == repr(want)


@pytest.mark.parametrize("make, depth, edges, witness", [
    (rel_adde_chain, CHAIN_DEPTH, {(0, 1)}, {0}),
    (union_comb, COMB_LEAVES, {(0, v) for v in range(1, COMB_LEAVES)}, {0}),
])
def test_deep_expression_at_default_recursion_limit(make, depth, edges, witness):
    assert sys.getrecursionlimit() < depth
    e = make()
    text = format_expression(e)
    parsed = parse_expression(text)
    assert format_expression(parsed) == text
    assert expression_length(parsed) == expression_length(e)
    assert max_label(parsed) == max_label(e)
    value = evaluate(parsed, k=3)
    g = value.to_graph()
    assert {tuple(sorted(x)) for x in value.edges} == edges
    assert g == Graph(len(value.vertices), sorted(edges))
    res = dp_dominating_set(parsed)
    assert (res.size, res.witness) == (len(witness), frozenset(witness))


def gluing_chain(steps: int, seed: int) -> Hypergraph:
    """``steps`` gluings of the current hypergraph to a zero-vertex side
    (no hyperedge, or the empty one) on either hand, drawn at random among
    the choices that keep it 1-Sperner.

    Vertex z is glued at step z, so ids are bit positions and the gluing
    runs on hyperedge masks. The current hypergraph and the side are both
    1-Sperner, so by the gluing lemma a choice is legal iff not (V1 in E1
    and the empty set in E2)."""
    rng = random.Random(seed)
    edges = {0}
    for z in range(steps):
        choices = [(empty, left) for empty in (False, True) for left in (False, True)]
        rng.shuffle(choices)
        v = (1 << z) - 1
        for empty, left in choices:
            if left and not (v in edges and empty):     # glue(h, side, z)
                edges = {1 << z | e for e in edges} | ({v} if empty else set())
                break
            if not left and not (empty and 0 in edges):  # glue(side, h, z)
                edges |= {1 << z} if empty else set()
                break
    return Hypergraph.from_masks(range(steps), edges)


@pytest.mark.parametrize("steps", [0, 1, 50, 300])
def test_gluing_chain_matches_the_pair_check_builder(steps):
    assert gluing_chain(steps, 11) == gluing_chain_by_pair_check(steps, 11)


def test_gluing_chain_at_default_recursion_limit(tmp_path, capsys):
    """The incidence split graph of a 300-step gluing chain goes through
    the domination pipeline, ``dominate``, and ``cwd`` then ``eval``: its
    decomposition tree is 191 levels deep and its 5-expression 1,414."""
    h = gluing_chain(300, 11)
    g = edge_clique_split_of(h).g
    assert (h.n, g.n) == (300, 446) and g.is_connected()
    results = solve_h_free_split_all(g)
    for r in results:
        assert not r.infeasible and is_dominating(g, r.witness, r.variant)
    path = tmp_path / "chain.graph"
    path.write_text(write_graph(g))
    assert cli.main(["--format", "records", "dominate", str(path)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["variant"], r["size"], r["witness"]) for r in records] == [
        (r.variant, r.size, sorted(r.witness)) for r in results]
    assert cli.main(["cwd", str(path), "--kind", "split-H"]) == 0
    expr_path = tmp_path / "chain.expr"
    expr_path.write_text(capsys.readouterr().out)
    assert cli.main(["eval", str(expr_path)]) == 0
    assert capsys.readouterr().out == write_graph(g)

"""k-expression evaluation, parsing, printing, length, and the builders."""

import random

import pytest

from sperner.cliquewidth import (AddEdges, ExpressionError, ExpressionParseError,
                                 Leaf, Relabel, Union_, build_bigraph_2p3_free,
                                 build_cobigraph, build_split_h_free,
                                 build_split_hbar_free, evaluate,
                                 expression_length, format_expression,
                                 max_label, parse_expression)
from sperner.generators import (random_bigraph_2p3_free, random_split_h_free,
                                random_split_hbar_free)
from sperner.graphs import Graph, LabeledSplitGraph


# the standard 3-expression of P4 (second occurrence of the third leaf
# read as the fourth vertex; see README)
P4_EXPR_TEXT = ("(adde 2 3 (union (rel 3 2 (rel 2 1 (adde 2 3 (union (adde 1 2 "
                "(union (leaf 1 v1) (leaf 2 v2))) (leaf 3 v3))))) (leaf 3 v4)))")


class TestEvaluate:
    def test_leaf(self):
        v = evaluate(Leaf(1, 7))
        assert v.vertices == (7,) and v.labels == {7: 1} and not v.edges

    def test_k2(self):
        e = AddEdges(1, 2, Union_(Leaf(1, 0), Leaf(2, 1)))
        v = evaluate(e)
        assert v.edges == frozenset({frozenset({0, 1})})
        assert v.to_graph() == Graph(2, [(0, 1)])

    def test_p4_fixture(self):
        e = parse_expression(P4_EXPR_TEXT)
        v = evaluate(e, k=3)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        edges = {tuple(sorted(x)) for x in v.edges}
        assert edges == {(1, 2), (2, 3), (3, 4)}
        assert max_label(e) == 3

    def test_duplicate_vertex_error(self):
        with pytest.raises(ExpressionError):
            evaluate(Union_(Leaf(1, 0), Leaf(2, 0)))

    def test_label_out_of_range(self):
        with pytest.raises(ExpressionError):
            evaluate(Leaf(6, 0), k=5)

    def test_add_edges_idempotent(self):
        base = AddEdges(1, 2, Union_(Leaf(1, 0), Leaf(2, 1)))
        doubled = AddEdges(1, 2, base)
        assert evaluate(base).edges == evaluate(doubled).edges

    def test_invalid_constructions(self):
        with pytest.raises(ExpressionError):
            Relabel(2, 2, Leaf(1, 0))
        with pytest.raises(ExpressionError):
            AddEdges(1, 1, Leaf(1, 0))
        with pytest.raises(ExpressionError):
            Leaf(0, 0)


class TestParsePrint:
    def test_leaf(self):
        assert parse_expression("(leaf 1 v1)") == Leaf(1, 1)
        assert parse_expression("(leaf 1 a)") == Leaf(1, "a")

    def test_k2_text(self):
        e = parse_expression("(adde 1 2 (union (leaf 1 a) (leaf 2 b)))")
        assert e == AddEdges(1, 2, Union_(Leaf(1, "a"), Leaf(2, "b")))

    def test_roundtrip(self):
        e = parse_expression(P4_EXPR_TEXT)
        assert parse_expression(format_expression(e)) == e

    def test_negative_ids_roundtrip(self):
        e = Union_(Leaf(1, -3), Union_(Leaf(2, 4), Leaf(1, "v-3")))
        text = format_expression(e)
        assert text == "(union (leaf 1 -3) (union (leaf 2 v4) (leaf 1 v-3)))"
        assert parse_expression(text) == e

    def test_non_ascii_digits_are_string_ids(self):
        assert parse_expression("(leaf 1 v²)") == Leaf(1, "v²")
        assert parse_expression("(leaf 1 ١٢)") == Leaf(1, "١٢")
        assert parse_expression("(leaf 1 -²)") == Leaf(1, "-²")

    def test_error_positions(self):
        with pytest.raises(ExpressionParseError) as ei:
            parse_expression("(union (leaf 1 a)\n  (leaf b))")
        assert ei.value.line == 2

    def test_trailing_input(self):
        with pytest.raises(ExpressionParseError):
            parse_expression("(leaf 1 a) junk")

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("(union (leaf 1 a) (leaf 2 a))")

    def test_unknown_operator(self):
        with pytest.raises(ExpressionParseError):
            parse_expression("(foo 1 2)")


class TestLength:
    def test_convention(self):
        assert expression_length(Leaf(1, 5)) == 3
        e = AddEdges(1, 2, Union_(Leaf(1, 0), Leaf(2, 1)))
        assert expression_length(e) == 10
        assert expression_length(Relabel(1, 2, Leaf(1, 0))) == 6


def _builder_roundtrip(builder, labeled, g, zside_labels, other_labels,
                       zside, other):
    expr = builder(labeled)
    v = evaluate(expr, k=5)
    assert v.to_graph() == g
    assert max_label(expr) <= 5
    for vertex, label in v.labels.items():
        if vertex in zside:
            assert label in zside_labels
        else:
            assert label in other_labels
    return expr


class TestBuilders:
    def test_single_clique_vertex(self):
        ls = LabeledSplitGraph(Graph(1, []), frozenset({0}), frozenset())
        e = build_split_h_free(ls)
        assert e == Leaf(4, 0)

    def test_five_vertex_example(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
        ls = LabeledSplitGraph(g, frozenset({0, 1}), frozenset({2, 3, 4}))
        e = _builder_roundtrip(build_split_h_free, ls, g, {1, 2, 3}, {4, 5},
                               ls.I, ls.K)
        assert expression_length(e) <= 60 * g.n

    def test_split_h_free_generated(self):
        rng = random.Random(201)
        for _ in range(50):
            ls = random_split_h_free(rng.randint(1, 13), rng)
            e = _builder_roundtrip(build_split_h_free, ls, ls.g, {1, 2, 3},
                                   {4, 5}, ls.I, ls.K)
            assert expression_length(e) <= 60 * ls.g.n

    def test_split_hbar_free_generated(self):
        rng = random.Random(202)
        for _ in range(50):
            ls = random_split_hbar_free(rng.randint(1, 13), rng)
            _builder_roundtrip(build_split_hbar_free, ls, ls.g, {1, 2, 3},
                               {4, 5}, ls.K, ls.I)

    def test_bigraph_generated(self):
        rng = random.Random(203)
        for _ in range(40):
            lb = random_bigraph_2p3_free(rng.randint(1, 12), rng)
            _builder_roundtrip(build_bigraph_2p3_free, lb, lb.g, {1, 2, 3},
                               {4, 5}, lb.A, lb.B)

    def test_cobigraph_generated(self):
        rng = random.Random(204)
        for _ in range(40):
            lb = random_bigraph_2p3_free(rng.randint(1, 12), rng)
            g = lb.g.complement()
            e = build_cobigraph(g)
            v = evaluate(e, k=5)
            assert v.to_graph() == g

    def test_m11_add_edges_set(self):
        # reading the 1-entries of M[1,1] above the diagonal
        from sperner.cliquewidth import _cross_add_edges
        assert _cross_add_edges(1, 1) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 5)]
        assert _cross_add_edges(0, 1) == [(1, 4), (2, 5), (4, 5)]
        assert _cross_add_edges(0, 0) == [(1, 4), (2, 5)]
        assert _cross_add_edges(1, 0) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5)]

    def test_parse_print_roundtrip_on_builder_output(self):
        rng = random.Random(205)
        for _ in range(20):
            ls = random_split_h_free(rng.randint(1, 10), rng)
            e = build_split_h_free(ls)
            assert parse_expression(format_expression(e)) == e

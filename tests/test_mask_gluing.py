"""The mask-native gluing decomposition against the definition.

``decompose`` picks its gluing vertex with the U_z-within-I_z test on
masks; these tests walk every tree against a frozenset oracle and a
frozenset split, and run the decomposition, recomposition and CLI on a
tree deeper than the default recursion limit.
"""

import random
import sys

import pytest

import sperner.cli as cli
from oracles import brute_gluing_vertices
from sperner.bitset import bits
from sperner.generators import antichain_bitmaps, random_one_sperner
from sperner.hypergraph import (HLeaf, HNode, Hypergraph, HypergraphError,
                                decompose, glue, is_one_sperner,
                                is_z_decomposable, recompose)
from sperner.textio import write_hypergraph


def small_one_sperner():
    """Every 1-Sperner family on at most 4 vertices (1-Sperner families are
    antichains), then 60 seeded random ones on at most 40 vertices."""
    for n in range(5):
        for fam in antichain_bitmaps(n):
            h = Hypergraph.from_masks(range(n), bits(fam))
            if is_one_sperner(h):
                yield h
    rng = random.Random(6)
    for _ in range(60):
        yield random_one_sperner(rng.randint(0, 40), rng)


def frozenset_split(h: Hypergraph, z: int) -> tuple[Hypergraph, Hypergraph]:
    """The constituents of a gluing at z, on frozensets."""
    with_z = [e - {z} for e in h.edges if z in e]
    v1 = frozenset().union(*with_z)
    v2 = frozenset(h.vertices) - v1 - {z}
    return (Hypergraph(v1, with_z),
            Hypergraph(v2, [f - v1 for f in h.edges if z not in f]))


def test_every_node_takes_the_smallest_oracle_vertex():
    count = 0
    for h in small_one_sperner():
        count += 1
        stack = [(decompose(h), h)]
        while stack:
            t, g = stack.pop()
            if isinstance(t, HLeaf):
                assert t.base == g
                continue
            assert t.z == min(brute_gluing_vertices(g)), g
            g1, g2 = frozenset_split(g, t.z)
            stack.append((t.left, g1))
            stack.append((t.right, g2))
    assert count > 60


def test_is_z_decomposable_matches_oracle():
    for h in small_one_sperner():
        assert [z for z in h.vertices if is_z_decomposable(h, z)] == \
            brute_gluing_vertices(h), h
    # the condition is defined beyond 1-Sperner inputs too
    for n in range(4):
        for fam in range(1 << (1 << n)):
            h = Hypergraph.from_masks(range(n), [m for m in range(1 << n) if fam >> m & 1])
            assert [z for z in h.vertices if is_z_decomposable(h, z)] == \
                brute_gluing_vertices(h), h


def test_recompose_non_contiguous_ids():
    h = Hypergraph([3, 7, 100], [{3, 7}, {7, 100}, {3, 100}])
    assert recompose(decompose(h)) == h
    empty, unit = Hypergraph([], []), Hypergraph([], [set()])
    tree = HNode(7, HNode(100, HLeaf(unit), HLeaf(empty)),
                 HNode(3, HLeaf(empty), HLeaf(unit)))
    expected = glue(glue(unit, empty, 100), glue(empty, unit, 3), 7)
    assert expected == Hypergraph([3, 7, 100], [{7, 100}, {100}])
    assert recompose(tree) == expected


def test_repeated_gluing_vertex_raises():
    leaf = HLeaf(Hypergraph([], [set()]))
    with pytest.raises(HypergraphError, match="duplicate vertex ids"):
        recompose(HNode(1, HNode(1, leaf, leaf), leaf))
    with pytest.raises(HypergraphError, match="duplicate vertex ids"):
        recompose(HNode(2, HNode(4, leaf, leaf), HNode(4, leaf, leaf)))


DEPTH = 1200


def parse_tree_text(text: str):
    """The tree printed by ``sperner decompose``, rebuilt as a view of its
    preorder list: the lines are in preorder, and a full binary tree is
    fixed by its preorder with leaves marked. Each line's indent must be
    the depth that the items before it give."""
    leaves = {"leaf edges={}": HLeaf(Hypergraph([], [])),
              "leaf edges={{}}": HLeaf(Hypergraph([], [set()]))}
    items = []
    depths = [0]
    for line in text.splitlines():
        body = line.lstrip(" ")
        depth = depths.pop()
        assert len(line) - len(body) == 2 * depth, line
        if body in leaves:
            items.append(leaves[body])
        else:
            items.append(int(body[2:]))
            depths += (depth + 1, depth + 1)
    assert not depths
    return HNode._view(items, 0, [])


def test_deep_chain_at_default_recursion_limit(tmp_path, capsys):
    assert sys.getrecursionlimit() < DEPTH
    h = Hypergraph(range(DEPTH), [{v} for v in range(DEPTH)])
    tree = decompose(h)
    depth, t = 0, tree
    while isinstance(t, HNode):
        depth, t = depth + 1, t.right
    assert depth == DEPTH
    assert recompose(tree) == h
    path = tmp_path / "chain.hyp"
    path.write_text(write_hypergraph(h))
    assert cli.main(["decompose", str(path)]) == 0
    assert recompose(parse_tree_text(capsys.readouterr().out)) == h

"""Decomposition trees far deeper than the recursion limit compare and
hash without recursion.

``HNode`` and ``DecompNode`` compare by their preorder with leaves marked
(``hypergraph.marked_preorder``), which fixes a full binary tree. Each
chain here is built twice, as distinct objects, and once with its
deepest leaf changed. The chains are built as views of their preorder
lists, since the node constructors copy their children.
"""

import sys

from sperner.decomposition import DecompLeaf, DecompNode
from sperner.hypergraph import HLeaf, HNode, Hypergraph, marked_preorder
from test_lean_expressions import DEEP, matching_chain


def gluing_chain_tree(depth: int, last_empty_edge: bool = True):
    """A gluing tree of ``depth`` nodes: the node of z = i has the leaf
    with no hyperedge as its left child and the next node as its right;
    the last right child is the leaf {{}}, or the leaf with no hyperedge
    when ``last_empty_edge`` is False. Built as its preorder list, in
    linear time."""
    empty = HLeaf(Hypergraph([], []))
    items = [x for z in range(depth) for x in (z, empty)]
    items.append(HLeaf(Hypergraph([], [set()] if last_empty_edge else [])))
    return HNode._view(items, 0, [])


def check_equal_and_hash(build, change_last):
    """``build()`` twice is equal and hashes equal; the tree with its
    deepest leaf changed is not equal."""
    assert sys.getrecursionlimit() < DEEP
    a, b, c = build(), build(), change_last()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


def test_deep_gluing_trees_compare_and_hash():
    check_equal_and_hash(lambda: gluing_chain_tree(DEEP),
                         lambda: gluing_chain_tree(DEEP, last_empty_edge=False))


def test_deep_m_partition_trees_compare_and_hash():
    check_equal_and_hash(lambda: matching_chain(DEEP),
                         lambda: matching_chain(DEEP, last_on_z_side=False))


def test_trees_of_different_kinds_or_shapes_differ():
    h, d = gluing_chain_tree(3), matching_chain(3)
    assert h != d and d != h
    assert h != gluing_chain_tree(4) and d != matching_chain(4)
    assert h == gluing_chain_tree(3) and d == matching_chain(3)
    # the same labels and leaves in another shape: z = 0 with two nodes
    # below it, against z = 0 with the node of z = 1 as its right child
    leaf = HLeaf(Hypergraph([], []))
    left_heavy = HNode(0, HNode(1, leaf, leaf), leaf)
    right_heavy = HNode(0, leaf, HNode(1, leaf, leaf))
    assert left_heavy != right_heavy
    assert marked_preorder(left_heavy) != marked_preorder(right_heavy)


def test_leaves_are_marked_in_the_preorder():
    tree = matching_chain(2)
    items = marked_preorder(tree)
    assert len(items) == 5
    assert [isinstance(x, DecompLeaf) for x in items] == [False, True, False, True, True]
    assert items[0] == tree.partition and isinstance(tree, DecompNode)

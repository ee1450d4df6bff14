"""M[a,b] trees as views of their preorder, against the code they
replaced (``tests/oracles.py``).

The four ``decompose_*`` functions return a ``DecompNode`` view of the
core's preorder list. On every in-class instance of small total size and
on seeded draws, for all four classes, the view must equal the tree of
the recursive join scan (``oracles.decompose_core_join_scan``), hash as
it does, show the same ``partition``/``left``/``right`` at every node,
equal a hand-built copy through the ``DecompNode`` constructor, and
print as the (subtree, depth) walk over node objects did
(``oracles.tree_to_text_by_walk``). The core builds one view and no
node, and the printers, the builder and the sweep's check read the list
without making a subtree view.
"""

import random

import pytest

import sperner.cli as cli
import sperner.decomposition as decomposition
import sperner.hypergraph as hypergraph
from oracles import decompose_core_join_scan, preorder, tree_to_text_by_walk
from sperner import sweeps
from sperner.cliquewidth import build_from_tree, evaluate
from sperner.decomposition import DecompLeaf, DecompNode, MPartition, tree_to_text
from sperner.generators import random_one_sperner
from sperner.hypergraph import (HLeaf, HNode, Hypergraph, decompose, fold_preorder,
                                marked_preorder, preorder_depths)
from sperner.sweeps import (_CLASSES, CLASS_NAMES, _exhaustive_class_instances,
                            _generated_class_instances, _graph_of)
from test_lean_expressions import matching_chain
from test_mask_gluing import parse_tree_text
from test_tree_equality import gluing_chain_tree


def hand_built(tree):
    """A copy of ``tree`` through the ``DecompNode`` constructor, node by
    node, read through ``partition``/``left``/``right``."""
    return fold_preorder([t for t, _ in preorder(tree, DecompLeaf)], lambda leaf: leaf,
                         lambda t, left, right: DecompNode(t.partition, left, right),
                         DecompLeaf)


def same_shape(a, b) -> bool:
    """``a`` and ``b`` show the same partition and z at every node and
    equal leaves, walked through their attributes."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, DecompLeaf) or isinstance(y, DecompLeaf):
            if x != y:
                return False
            continue
        if x.partition != y.partition or x.z != y.z:
            return False
        stack += ((x.left, y.left), (x.right, y.right))
    return True


def by_join_scan(monkeypatch, name, inst):
    with monkeypatch.context() as m:
        m.setattr(decomposition, "_decompose_core", decompose_core_join_scan)
        return _CLASSES[name].decompose(inst)


@pytest.mark.parametrize("name", CLASS_NAMES)
def test_views_match_the_join_scan(name, monkeypatch):
    nodes = 0
    for inst in [*_exhaustive_class_instances(name, 8),
                 *_generated_class_instances(name, 60, 24, 21)]:
        tree = _CLASSES[name].decompose(inst)
        want = by_join_scan(monkeypatch, name, inst)
        assert tree == want and hash(tree) == hash(want), inst
        assert same_shape(tree, want), inst
        copy = hand_built(tree)
        assert copy == tree and hash(copy) == hash(tree) and same_shape(copy, tree)
        text = tree_to_text(tree)
        assert text == tree_to_text_by_walk(tree) == tree_to_text_by_walk(want), inst
        if isinstance(tree, DecompNode):
            nodes += 1
            assert marked_preorder(tree) == marked_preorder(want)
            for child in (tree.left, tree.right):
                assert child == hand_built(child)
                assert marked_preorder(child) == marked_preorder(hand_built(child))
    assert nodes >= 100


def test_the_depth_walk_matches_the_object_walk():
    """``preorder_depths`` gives every item of both tree kinds the depth
    the walk over node objects gives its subtree."""
    rng = random.Random(22)
    trees = [decompose(random_one_sperner(rng.randint(0, 40), rng)) for _ in range(20)]
    trees += [_CLASSES[name].decompose(inst) for name in CLASS_NAMES
              for inst in _generated_class_instances(name, 10, 30, 22)]
    trees += [HLeaf(Hypergraph([], [])), DecompLeaf(None, True), matching_chain(5)]
    for tree in trees:
        leaf_type = DecompLeaf if isinstance(tree, (DecompNode, DecompLeaf)) else HLeaf
        label = (lambda t: t.z) if leaf_type is HLeaf else (lambda t: t.partition)
        want = [(t if isinstance(t, leaf_type) else label(t), depth)
                for t, depth in preorder(tree, leaf_type)]
        assert list(preorder_depths(tree, leaf_type)) == want


def test_core_builds_one_view_and_the_readers_none(monkeypatch):
    """``_decompose_core`` calls no ``fold_preorder`` and constructs no
    ``DecompNode``: it returns one view, at index 0, of its own list.
    Printing, building and the sweep's check make no further view."""
    rng = random.Random(23)
    insts = {name: _CLASSES[name].generate(30, rng) for name in CLASS_NAMES}
    views = []
    make_view = DecompNode._view.__func__

    def counted(cls, *args):
        views.append(args[1])
        return make_view(cls, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("not on this path")

    assert not hasattr(decomposition, "fold_preorder")
    monkeypatch.setattr(DecompNode, "_view", classmethod(counted))
    monkeypatch.setattr(DecompNode, "__init__", refuse)
    with monkeypatch.context() as m:
        m.setattr(hypergraph, "fold_preorder", refuse)
        trees = {name: _CLASSES[name].decompose(inst) for name, inst in insts.items()}
    assert views == [0] * len(CLASS_NAMES)
    texts = {}
    for name, tree in trees.items():
        assert isinstance(tree, DecompNode)
        g = _graph_of(insts[name])
        assert evaluate(build_from_tree(tree), k=5).to_graph() == g
        texts[name] = tree_to_text(tree)
        rep = sweeps.SweepReport("graph-decomposition", None, {})
        assert sweeps._check_decomposition(name, insts[name], rep) == tree
        assert rep.disagreements == []
    # one more view per sweep check, which decomposes again; none per reader
    assert views == [0] * (2 * len(CLASS_NAMES))
    monkeypatch.undo()
    for name, tree in trees.items():
        assert texts[name] == tree_to_text_by_walk(tree)


def test_node_repr_child_check_and_kinds():
    p = MPartition((1, 0, 0, 2, 0), 0, 0)
    node = DecompNode(p, DecompLeaf(1, False), DecompLeaf(None, True))
    assert repr(node) == (
        "DecompNode(partition=MPartition(parts=(1, 0, 0, 2, 0), a=0, b=0), "
        "left=DecompLeaf(vertex=1, on_z_side=False), "
        "right=DecompLeaf(vertex=None, on_z_side=True))")
    assert node.z == 0 and node.partition is p
    with pytest.raises(AttributeError):
        node.partition = p
    with pytest.raises(TypeError):
        DecompNode(p, node, HLeaf(Hypergraph([], [])))
    with pytest.raises(TypeError):
        HNode(0, node, HLeaf(Hypergraph([], [])))


def gluing_chain_by_constructor(depth: int, last_empty_edge: bool = True):
    tree = HLeaf(Hypergraph([], [set()] if last_empty_edge else []))
    for z in reversed(range(depth)):
        tree = HNode(z, HLeaf(Hypergraph([], [])), tree)
    return tree


def matching_chain_by_constructor(depth: int, last_on_z_side: bool = True):
    tree = DecompLeaf(2 * depth, last_on_z_side)
    evens, odds = 1 << 2 * depth, 0
    for i in reversed(range(depth)):
        z, mate = 2 * i, 2 * i + 1
        parts = (1 << z, 0, evens, 1 << mate, odds)
        tree = DecompNode(MPartition(parts, 0, 0), DecompLeaf(mate, False), tree)
        evens |= 1 << z
        odds |= 1 << mate
    return tree


def test_list_built_test_trees_equal_the_constructor_built_ones():
    """The deep test trees are built as preorder lists; on small depths
    they equal the trees the node constructors build, and the parsed tree
    text equals the printed tree."""
    for depth in range(8):
        for flag in (True, False):
            assert gluing_chain_tree(depth, flag) == gluing_chain_by_constructor(depth, flag)
            assert matching_chain(depth, flag) == matching_chain_by_constructor(depth, flag)
    rng = random.Random(24)
    for _ in range(30):
        tree = decompose(random_one_sperner(rng.randint(1, 40), rng))
        assert parse_tree_text(cli._hyper_tree_text(tree)) == tree

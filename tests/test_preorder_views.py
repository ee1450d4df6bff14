"""Gluing trees as views of their preorder, and the one-map hypergraph
reader, against the code they replaced (``tests/oracles.py``).

``decompose`` returns an ``HNode`` view of the scan's preorder list.
Every 1-Sperner family of small total size is decomposed, and its tree
must equal a hand-built ``HNode(z, left, right)`` copy, show the same
``z``/``left``/``right``, recompose to the input as the fold over the
subtrees does, and print as the (subtree, depth) walk did. The reader is
run on mutated canonical texts against the reader that built a list of
bits per line.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import sperner.cli as cli
import sperner.hypergraph as hypergraph
from oracles import (hyper_tree_text_by_walk, preorder,
                     read_hypergraph_by_bit_lists, recompose_by_fold)
from sperner.generators import one_sperner_hypergraphs, random_one_sperner
from sperner.hypergraph import (HLeaf, HNode, Hypergraph, decompose,
                                fold_preorder, gluing_preorder, marked_preorder,
                                recompose)
from sperner.textio import ParseError, read_hypergraph, write_hypergraph


def hand_built(tree):
    """A copy of ``tree`` through the public constructor, node by node,
    read through ``z``/``left``/``right``."""
    return fold_preorder([t for t, _ in preorder(tree)], lambda leaf: leaf,
                         lambda t, left, right: HNode(t.z, left, right))


def same_shape(a, b) -> bool:
    """``a`` and ``b`` show the same z at every node and equal leaves,
    walked through their attributes."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, HLeaf) or isinstance(y, HLeaf):
            if x != y:
                return False
            continue
        if x.z != y.z:
            return False
        stack += ((x.left, y.left), (x.right, y.right))
    return True


def test_views_against_hand_built_trees_and_the_fold():
    count = 0
    for h in one_sperner_hypergraphs(9):
        count += 1
        tree = decompose(h)
        copy = hand_built(tree)
        assert copy == tree and hash(copy) == hash(tree), h
        assert same_shape(tree, copy), h
        assert recompose(tree) == h == recompose_by_fold(tree), h
        assert recompose(copy) == h
        assert cli._hyper_tree_text(tree) == hyper_tree_text_by_walk(tree), h
        if isinstance(tree, HNode):
            assert marked_preorder(tree) == tuple(gluing_preorder(h))
            direct = HNode(tree.z, tree.left, tree.right)
            assert direct == tree and direct is not tree
            for child in (tree.left, tree.right):
                assert child == hand_built(child)
                assert marked_preorder(child) == marked_preorder(hand_built(child))
        else:
            assert h.n == 0
    assert count == 12641


def test_views_of_random_trees():
    rng = random.Random(20)
    for _ in range(40):
        h = random_one_sperner(rng.randint(1, 60), rng)
        tree = decompose(h)
        assert same_shape(tree, hand_built(tree))
        assert recompose(tree) == h == recompose_by_fold(tree)
        assert cli._hyper_tree_text(tree) == hyper_tree_text_by_walk(tree)
        # every subtree's view equals its own hand-built copy
        for sub, _ in preorder(tree):
            if isinstance(sub, HNode):
                assert sub == hand_built(sub)
                assert recompose(sub) == recompose_by_fold(sub)


def test_decompose_builds_one_view_and_recompose_folds_nothing(monkeypatch):
    h = random_one_sperner(40, random.Random(3))
    views = []
    make_view = HNode._view.__func__

    def counted(cls, *args):
        views.append(args[1])
        return make_view(cls, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("not on this path")

    monkeypatch.setattr(HNode, "_view", classmethod(counted))
    monkeypatch.setattr(HNode, "__init__", refuse)
    tree = decompose(h)
    assert views == [0]
    monkeypatch.setattr(hypergraph, "fold_preorder", refuse)
    monkeypatch.setattr(hypergraph, "_glue_masks", refuse)
    assert recompose(tree) == h
    assert views == [0]


def test_view_is_immutable_and_checks_its_children():
    tree = decompose(Hypergraph([0, 1, 2], [{0, 1}, {1, 2}]))
    with pytest.raises(AttributeError):
        tree.z = 5
    with pytest.raises(TypeError):
        HNode(0, tree, "not a tree")
    leaf = HLeaf(Hypergraph([], [set()]))
    assert repr(HNode(3, leaf, HLeaf(Hypergraph([], [])))) == (
        "HNode(z=3, left=HLeaf(base=Hypergraph([], [[]])), "
        "right=HLeaf(base=Hypergraph([], [])))")


# ---------------------------------------------------------------------------
# The reader on mutated canonical texts
# ---------------------------------------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
RESPELL = (lambda t: "+" + t, lambda t: "0" + t, lambda t: "-" + t,
           lambda t: t.translate(ARABIC_INDIC), lambda t: t.translate(FULLWIDTH),
           lambda t: t + "x")
MUTATIONS = ("comment line", "blank line", "trailing comment", "respell",
             "size up", "size down", "repeat", "out of range", "duplicate",
             "header count")


def outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return type(exc), str(exc)


def mutated_text(h: Hypergraph, ops, crlf: bool, tabs: bool) -> str:
    """The canonical text of ``h`` after ``ops``, each (mutation, number):
    the number picks the line, token or spelling the mutation acts on."""
    _, *rows = write_hypergraph(h).splitlines()
    lines = [["edge", row.split(), ""] for row in rows]
    extra_m = 0
    for op, i in ops:
        edges = [line for line in lines if line[0] == "edge"]
        row = edges[i % len(edges)] if edges else None
        if op == "comment line":
            lines.insert(i % (len(lines) + 1), ["extra", [], "# note"])
        elif op == "blank line":
            lines.insert(i % (len(lines) + 1), ["extra", [], " \t "])
        elif op == "header count":
            extra_m += 1 if i % 2 else -1
        elif row is None:
            continue
        elif op == "trailing comment":
            row[2] = "#" + str(i)
        elif op == "respell":
            toks = row[1]
            j = i % len(toks)
            toks[j] = RESPELL[i % len(RESPELL)](toks[j])
        elif op in ("size up", "size down"):
            k = int(row[1][0]) if row[1][0].isascii() and row[1][0].isdigit() else 0
            row[1][0] = str(k + (1 if op == "size up" else -1))
        elif op == "repeat" and len(row[1]) > 1:
            row[1].append(row[1][1 + i % (len(row[1]) - 1)])
            if i % 2:
                row[1][0] = str(len(row[1]) - 1)
        elif op == "out of range":
            row[1].append(str(h.n + i % 3) if i % 4 else "-1")
            row[1][0] = str(len(row[1]) - 1)
        elif op == "duplicate":
            lines.insert(i % (len(lines) + 1), ["edge", list(row[1]), ""])
    sep = " \t" if tabs else " "
    count = sum(line[0] == "edge" for line in lines)
    body = [sep.join(toks) + (" " + note if toks and note else note)
            for _, toks, note in lines]
    text_lines = [f"{h.n} {count + extra_m}"] + body
    return ("\r\n" if crlf else "\n").join(text_lines) + "\n"


@settings(max_examples=400)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 9),
       ops=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 99)),
                    max_size=4),
       crlf=st.booleans(), tabs=st.booleans())
def test_reader_against_the_bit_list_reader(seed, n, ops, crlf, tabs):
    h = random_one_sperner(n, random.Random(seed)) if n else Hypergraph([], [])
    text = mutated_text(h, ops, crlf, tabs)
    got = outcome(read_hypergraph, text)
    assert got == outcome(read_hypergraph_by_bit_lists, text), text
    if not ops:
        assert got == h


def test_mutations_reach_every_outcome():
    """The mutations above give accepted non-canonical texts and every
    error of a hyperedge line or of the line count."""
    h = Hypergraph(range(3), [{0, 1}, {1, 2}])
    cases = {
        (("respell", 0),): Hypergraph,                       # "+2 0 1"
        (("respell", 3),): Hypergraph,                       # Arabic-Indic size
        (("respell", 4),): Hypergraph,                       # fullwidth vertex
        (("size up", 0),): "declared size",
        (("repeat", 1),): "repeated vertex",
        (("out of range", 1),): "out of range",
        (("out of range", 0),): "out of range",              # vertex -1
        (("duplicate", 0),): "duplicate hyperedges",
        (("header count", 1),): "expected 3 hyperedge lines",
        (("respell", 5),): "must contain integers",
    }
    for ops, want in cases.items():
        text = mutated_text(h, ops, False, False)
        got = outcome(read_hypergraph, text)
        assert got == outcome(read_hypergraph_by_bit_lists, text)
        if want is Hypergraph:
            assert got == h, ops
        else:
            assert want in got[1], (ops, got)

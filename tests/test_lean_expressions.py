"""The lean 5-expression layer against its references.

* The three-case 2P3 pair test agrees with the 6-vertex pattern search on
  every bipartition of every bigraph structure on at most eight vertices.
* The builder that leaves out relabels and add-edges on absent labels
  gives the expression of the recursive builder that emits them all
  (``oracles.build_from_tree_unpruned``) with exactly those operators
  removed, on every in-class structure on at most six vertices and on
  seeded draws: the same labeled graph, no dead operator, no more tokens.
* ``to_graph`` from position masks equals the old route through the
  frozenset edge set, errors included.
* The builder runs on a decomposition chain far deeper than the
  recursion limit.
"""

import random
import sys

import oracles
from sperner.bitset import bits
from sperner.cliquewidth import (ADDE, LEAF, REL, UNION, ExpressionError, Leaf,
                                 Union_, _view, build_from_tree, evaluate,
                                 expression_length, format_expression, postfix)
from sperner.decomposition import (DecompLeaf, DecompNode, MPartition,
                                   bigraph_two_p3_witness)
from sperner.generators import bigraph_structures
from sperner.graphs import Graph, LabeledBigraph, find_induced, pattern
from sperner.sweeps import (_CLASSES, CLASS_NAMES, _exhaustive_class_instances,
                            _generated_class_instances, _graph_of)
from test_expression_oracle import random_expression


def test_pair_test_matches_pattern_search_on_every_bipartition():
    two_p3 = pattern("2P3")
    seen = {True: 0, False: 0}
    for n in range(9):
        for lb in bigraph_structures(n):
            g = lb.g
            want = find_induced(g, two_p3) is not None
            comps = g.components()
            amask = sum(1 << v for v in lb.A)
            # every bipartition: flip any subset of the components
            for flips in range(1 << len(comps)):
                am = amask
                for i in bits(flips):
                    am ^= comps[i]
                A = frozenset(bits(am))
                got = bigraph_two_p3_witness(
                    LabeledBigraph(g, A, frozenset(range(n)) - A))
                assert (got is not None) == want, (g, sorted(A))
                seen[want] += 1
    assert seen[True] > 10_000 and seen[False] > 50_000, seen


def strip_dead(e):
    """``e`` without its relabels of an absent label and add-edges on an
    absent label, and how many there were. One pass over the postfix op
    list tracks the label set of each pending operand and leaves the dead
    ops out of the copy; the rest stay in order."""
    kept = []
    labels = []
    dead = 0
    for op in postfix(e):
        code = op[0]
        if code == LEAF:
            labels.append({op[1]})
        elif code == UNION:
            right = labels.pop()
            labels[-1] = labels[-1] | right
        elif code == REL and op[1] in labels[-1]:
            labels[-1] = labels[-1] - {op[1]} | {op[2]}
        elif not (code == ADDE and {op[1], op[2]} <= labels[-1]):
            dead += 1
            continue
        kept.append(op)
    return _view(kept), dead


def class_instances():
    for name in CLASS_NAMES:
        for inst in _exhaustive_class_instances(name, 6):
            yield name, inst
        for inst in _generated_class_instances(name, 60, 20, 1301):
            yield name, inst


def test_pruned_builder_is_unpruned_builder_without_dead_operators():
    removed = 0
    count = 0
    for name, inst in class_instances():
        tree = _CLASSES[name].decompose(inst)
        g = _graph_of(inst)
        lean = build_from_tree(tree)
        full = oracles.build_from_tree_unpruned(tree)
        stripped, dead = strip_dead(full)
        assert strip_dead(lean)[1] == 0, (name, g)
        assert lean == stripped, (name, g)
        assert format_expression(lean) == format_expression(stripped), (name, g)
        assert expression_length(lean) == expression_length(full) - 3 * dead
        lean_value, full_value = evaluate(lean, k=5), evaluate(full, k=5)
        assert lean_value.to_graph() == full_value.to_graph() == g, (name, g)
        assert lean_value.labels == full_value.labels
        removed += dead
        count += 1
    assert count > 400 and removed > count, (count, removed)


def old_to_graph(e) -> Graph:
    """``evaluate(e).to_graph()`` as it was: the frozenset edge set of the
    recursive evaluator, with the old contiguity check."""
    labels, edges = oracles._eval(e)
    ids = sorted(labels, key=lambda v: (isinstance(v, str), v))
    if ids != list(range(len(ids))):
        raise ExpressionError("vertex ids are not contiguous 0-based integers")
    return Graph(len(ids), [tuple(sorted(x)) for x in edges])


def graph_outcome(fn, e):
    try:
        return ("ok", fn(e))
    except ExpressionError as exc:
        return ("error", str(exc))


def test_to_graph_matches_the_edge_set_route():
    rng = random.Random(1302)
    exprs = [build_from_tree(_CLASSES[name].decompose(inst))
             for name, inst in class_instances()]
    for _ in range(600):
        leaves = rng.randint(1, 10)
        e = random_expression(rng, leaves, rng.randint(max(1, leaves - 2), leaves + 1))
        if rng.random() < 0.3:     # ids that are not 0..n-1 integers
            e = Union_(e, Leaf(1, rng.choice([-1, "v", 99])))
        exprs.append(e)
    seen = set()
    for e in exprs:
        want = graph_outcome(old_to_graph, e)
        assert graph_outcome(lambda x: evaluate(x).to_graph(), e) == want
        seen.add(want[1].split(":")[0] if want[0] == "error" else "ok")
    assert seen == {"ok", "vertex ids are not contiguous 0-based integers",
                    "duplicate vertex ids across union"}, seen


DEEP = 3000


def matching_chain(depth: int, last_on_z_side: bool = True):
    """An M[0,0] decomposition chain of ``depth`` nodes: the node of z = 2i
    has the other-side vertex 2i + 1 as its left child and the next node
    as its right, and the last right child is the z-side vertex
    2 * depth. It describes ``depth`` disjoint edges and one isolated
    vertex. ``last_on_z_side=False`` puts that last vertex on the other
    side instead, which changes the tree at its deepest leaf only. Built
    as its preorder list, in linear time: the node constructor copies
    its children."""
    items = [DecompLeaf(2 * depth, last_on_z_side)]
    evens, odds = 1 << 2 * depth, 0     # the vertices of the subtree below z
    for i in reversed(range(depth)):
        z, mate = 2 * i, 2 * i + 1
        parts = (1 << z, 0, evens, 1 << mate, odds)
        items += (DecompLeaf(mate, False), MPartition(parts, 0, 0))
        evens |= 1 << z
        odds |= 1 << mate
    items.reverse()
    return DecompNode._view(items, 0, [])


def test_deep_chain_at_default_recursion_limit():
    assert sys.getrecursionlimit() < DEEP
    tree = matching_chain(DEEP)
    g = evaluate(build_from_tree(tree), k=5).to_graph()
    assert g == Graph(2 * DEEP + 1, [(2 * i, 2 * i + 1) for i in range(DEEP)])

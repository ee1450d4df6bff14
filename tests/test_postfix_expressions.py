"""5-expressions as views of their postfix op list, against the recursive
reference code in ``oracles``.

* On every in-class instance of at most eight vertices and on seeded
  draws, for all four classes, the builder's expression equals the
  recursive builder's with its dead operators left out
  (``test_lean_expressions.strip_dead``), prints as the recursive printer
  prints it, parses back to an equal expression (with the recursive
  parser too, node for node), and evaluates as the recursive evaluator
  does.
* Mutated texts (CRLF, tabs, the separators ``\\x1c``-``\\x1f``, an em
  space, a missing or extra ")", label 0, equal labels, a non-integer
  label, duplicate ids, trailing input, empty input) give the recursive
  parser's expression or its error: type, message, line and column.
* The builder and the parser make one view and no node; the readers
  make none.
* ``format_expression`` then ``parse_expression`` gives back every
  expression over int and str ids, and a str id that would not read back
  is an ExpressionError that names it.
"""

import random
import re

import pytest
from hypothesis import given, strategies as st

import oracles
import sperner.cliquewidth as cliquewidth
import sperner.hypergraph as hypergraph
from sperner.cliquewidth import (AddEdges, ExpressionError, KExpression, Leaf,
                                 Relabel, Union_, build_from_tree, built, evaluate,
                                 expression_length, format_expression, max_label,
                                 parse_expression)
from sperner.domination import dp_dominating_set
from sperner.sweeps import (_CLASSES, CLASS_NAMES, _exhaustive_class_instances,
                            _generated_class_instances, _graph_of)
from test_cliquewidth import P4_EXPR_TEXT
from test_expression_oracle import outcome
from test_lean_expressions import strip_dead


def fields(x) -> tuple:
    """A node's kind and its own fields, read through the view's names."""
    if isinstance(x, Leaf):
        return "leaf", x.label, x.vertex
    if isinstance(x, Union_):
        return ("union",)
    if isinstance(x, Relabel):
        return "rel", x.src, x.dst
    return "adde", x.i, x.j


def nodes(e) -> list:
    """The fields of every node of ``e``, in postorder, walked through
    ``left``/``right``/``sub`` (``oracles.postorder``)."""
    return [fields(x) for x in oracles.postorder(e)]


def class_trees():
    for name in CLASS_NAMES:
        for inst in [*_exhaustive_class_instances(name, 8),
                     *_generated_class_instances(name, 40, 24, 2301)]:
            yield name, _CLASSES[name].decompose(inst), _graph_of(inst)


def test_list_based_layer_against_the_recursive_code():
    count = 0
    for name, tree, g in class_trees():
        e = built(tree)
        want, _ = strip_dead(oracles.build_from_tree_unpruned(tree))
        assert e == want and hash(e) == hash(want), (name, g)
        text = format_expression(e)
        assert text == oracles.format_expression(e), (name, g)
        parsed, by_oracle = parse_expression(text), oracles.parse_expression(text)
        assert parsed == e == by_oracle and hash(parsed) == hash(by_oracle)
        walked = nodes(by_oracle)
        assert nodes(e) == walked and nodes(parsed) == walked, (name, g)
        value = evaluate(parsed, k=5)
        labels, edges = oracles._eval(by_oracle)
        assert list(value.labels.items()) == list(labels.items())
        assert value.edges == frozenset(edges) and value.to_graph() == g
        assert max_label(e) == max(x[1] if x[0] == "leaf" else max(x[1:])
                                   for x in walked if x[0] != "union") <= 5
        assert expression_length(e) == sum(1 if x == ("union",) else 3 for x in walked)
        count += 1
    assert count > 400, count


def test_operands_are_views_of_the_same_list():
    """Every operand read from a built expression is a view of its list,
    equal to the copy the recursive parser makes of its text."""
    rng = random.Random(2302)
    name = "split-H"
    inst = _CLASSES[name].generate(20, rng)
    e = built(_CLASSES[name].decompose(inst))
    for x in oracles.postorder(e):
        assert x._ops is e._ops and x._starts is e._starts
        assert x == oracles.parse_expression(format_expression(x))
    assert repr(e) == repr(oracles.parse_expression(format_expression(e)))


# ---------------------------------------------------------------------------
# Mutated texts
# ---------------------------------------------------------------------------

FIRST_LABEL = re.compile(r"\((?:leaf|rel|adde) (\d+)")
LABEL_PAIR = re.compile(r"\((?:rel|adde) (\d+) (\d+)")
VERTEX = re.compile(r"\(leaf \d+ (\S+?)\)")


def spaces_to(sep):
    return lambda text, rng: "".join(
        rng.choice((" ", sep)) if c == " " else c for c in text)


def replace_match(pattern, group, make):
    """Rewrite ``group`` of one random match of ``pattern`` with
    ``make(rng, match)``; the text is unchanged when nothing matches."""
    def mutate(text, rng):
        found = list(pattern.finditer(text))
        if not found:
            return text
        m = rng.choice(found)
        return text[:m.start(group)] + make(rng, m) + text[m.end(group):]
    return mutate


def drop_paren(text, rng):
    i = rng.choice([i for i, c in enumerate(text) if c == ")"])
    return text[:i] + text[i + 1:]


def add_paren(text, rng):
    i = rng.randrange(len(text) + 1)
    return text[:i] + ")" + text[i:]


def duplicate_id(text, rng):
    ids = VERTEX.findall(text)
    return replace_match(VERTEX, 1, lambda rng, m: rng.choice(ids))(text, rng)


# mutation -> (edit, outcomes that some edited text must give: "ok" or
# the start of an error message)
MUTATIONS = {
    "crlf": (spaces_to("\r\n"), {"ok"}),
    "tabs": (spaces_to("\t"), {"ok"}),
    "separators": (lambda text, rng: spaces_to(rng.choice("\x1c\x1d\x1e\x1f"))(text, rng),
                   {"ok"}),
    "em space": (spaces_to("\u2003"), {"ok"}),
    "missing )": (drop_paren, {"unexpected end of input", "expected ')'"}),
    "extra )": (add_paren, {"trailing input", "expected '('"}),
    "label 0": (replace_match(FIRST_LABEL, 1, lambda rng, m: "0"),
                {"labels are positive integers"}),
    "equal labels": (replace_match(LABEL_PAIR, 2, lambda rng, m: m.group(1)),
                     {"relabel needs two distinct labels",
                      "add-edges needs two distinct labels"}),
    "non-integer label": (replace_match(FIRST_LABEL, 1,
                                        lambda rng, m: rng.choice(("x", "1.5", "v1"))),
                          {"expected a label", "expected a source label"}),
    "duplicate ids": (duplicate_id, {"duplicate vertex id"}),
    "trailing input": (lambda text, rng: text + rng.choice((" (leaf 1 v99)", ")", " x")),
                       {"trailing input"}),
    "empty input": (lambda text, rng: rng.choice(("", " ", "\r\n\t", "\x1c ")),
                    {"unexpected end of input"}),
}


def message_of(res) -> str:
    """"ok", or an error message without its line and column."""
    if res[0] == "ok":
        return "ok"
    return res[2].split(": ", 1)[1] if res[3] else res[2]


def parsed_outcome(text):
    """Both parsers' outcome on ``text``, which must agree; an error is
    (type, message, line, column)."""
    got, want = outcome(parse_expression, text), outcome(oracles.parse_expression, text)
    if want[0] == "ok":
        assert got[0] == "ok" and got[1] == want[1], text
        assert nodes(got[1]) == nodes(want[1]), text
    else:
        assert got == want, text
    return want


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_mutated_texts_against_the_recursive_parser(kind):
    rng = random.Random(2303)
    bases = [P4_EXPR_TEXT] + [format_expression(built(_CLASSES[name].decompose(inst)))
                              for name in CLASS_NAMES
                              for inst in _generated_class_instances(name, 5, 24, 2305)]
    mutate, must_reach = MUTATIONS[kind]
    reached = set()
    for text in bases:
        for _ in range(3):
            res = parsed_outcome(mutate(text, rng))
            reached.add(message_of(res))
            if must_reach == {"ok"}:
                assert res[1] == parse_expression(text), kind
    assert all(any(m.startswith(want) for m in reached) for want in must_reach), reached


# ---------------------------------------------------------------------------
# One view per expression
# ---------------------------------------------------------------------------

def test_builder_and_parser_make_one_view_and_no_node(monkeypatch):
    rng = random.Random(2304)
    trees = [(name, _CLASSES[name].decompose(inst), _graph_of(inst))
             for name in CLASS_NAMES for inst in [_CLASSES[name].generate(20, rng)]]
    views = []
    make_view = cliquewidth._view

    def counted(ops, at=None, starts=None):
        views.append(at)
        return make_view(ops, at, starts)

    def refuse(*args, **kwargs):
        raise AssertionError("no node is built on this path")

    assert not hasattr(cliquewidth, "fold_preorder")
    monkeypatch.setattr(cliquewidth, "_view", counted)
    monkeypatch.setattr(KExpression, "_init", refuse)
    monkeypatch.setattr(hypergraph, "fold_preorder", refuse)
    for name, tree, g in trees:
        e = build_from_tree(tree)
        text = format_expression(e)
        parsed = parse_expression(text)
        assert views == [None, None]
        assert evaluate(parsed, k=5).to_graph() == evaluate(e).to_graph() == g
        assert max_label(e) == max_label(parsed) and dp_dominating_set(e).size > 0
        assert expression_length(parsed) == expression_length(e)
        assert views == [None, None]
        views.clear()


# ---------------------------------------------------------------------------
# Printing string ids
# ---------------------------------------------------------------------------

def reads_back(s: str) -> bool:
    """Whether a string id prints as one token that reads back as itself:
    no whitespace or parenthesis, and not a decimal literal."""
    return (bool(s) and not any(c.isspace() or c in "()" for c in s)
            and not re.fullmatch(r"-?[0-9]+|v[0-9]+", s))


@pytest.mark.parametrize("bad", ["v3", "12", "-4", "a b", "(x", "x)", "", " "])
def test_string_ids_that_would_not_read_back_raise(bad):
    e = Union_(Leaf(1, bad), Leaf(2, "q"))
    with pytest.raises(ExpressionError, match=re.escape(repr(bad))):
        format_expression(e)


@st.composite
def expressions(draw):
    ids = draw(st.lists(st.one_of(st.integers(-30, 10 ** 9),
                                  st.from_regex(r"[a-zv²-][a-z0-9²-]{0,3}", fullmatch=True),
                                  st.text(max_size=4)),
                        min_size=1, max_size=8, unique=True))
    parts = [Leaf(draw(st.integers(1, 6)), v) for v in ids]
    unary = draw(st.integers(0, 6))
    while len(parts) > 1 or unary:
        i = draw(st.integers(0, len(parts) - 1))
        if len(parts) > 1 and (not unary or draw(st.booleans())):
            j = draw(st.integers(0, len(parts) - 2))
            j += j >= i
            parts[i] = Union_(parts[i], parts[j])
            del parts[j]
            continue
        a, b = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
        parts[i] = (Relabel if draw(st.booleans()) else AddEdges)(a, b, parts[i])
        unary -= 1
    return parts[0], ids


@given(expressions())
def test_format_then_parse_gives_the_expression_back(drawn):
    e, ids = drawn
    bad = [v for v in ids if isinstance(v, str) and not reads_back(v)]
    if bad:
        with pytest.raises(ExpressionError) as info:
            format_expression(e)
        assert any(repr(v) in str(info.value) for v in bad)
        return
    text = format_expression(e)
    assert text == oracles.format_expression(e)
    back = parse_expression(text)
    assert back == e and hash(back) == hash(e) and nodes(back) == nodes(e)

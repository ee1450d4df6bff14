"""The stack-based k-expression parser, printer and evaluator against the
recursive reference versions in ``oracles``: the same values, the same
text, and for every error the same type and full message (line and column
included). Inputs are builder output of all four classes on seeded
graphs, the P4 fixture, hand-picked edge cases, seeded mutations of
formatted texts, and random expressions whose vertex ids may repeat."""

import random
import re

import oracles
from sperner.cliquewidth import (AddEdges, Leaf, Relabel, Union_,
                                 build_bigraph_2p3_free, build_cobigraph,
                                 build_split_h_free, build_split_hbar_free,
                                 evaluate, format_expression, parse_expression)
from sperner.generators import (random_bigraph_2p3_free, random_split_h_free,
                                random_split_hbar_free)
from test_cliquewidth import P4_EXPR_TEXT

MUTATIONS = 1500


def builder_expressions():
    rng = random.Random(901)
    out = []
    for _ in range(25):
        out.append(build_split_h_free(random_split_h_free(rng.randint(1, 14), rng)))
        out.append(build_split_hbar_free(random_split_hbar_free(rng.randint(1, 14), rng)))
        out.append(build_bigraph_2p3_free(random_bigraph_2p3_free(rng.randint(1, 12), rng)))
        out.append(build_cobigraph(random_bigraph_2p3_free(rng.randint(1, 12), rng).g.complement()))
    return out


def outcome(fn, *args):
    """("ok", result) or ("error", type, message, line, column)."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:   # ExpressionError and its parse error among them
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def library_eval(e):
    """``evaluate``'s labels, in leaf order, and its edge set."""
    value = evaluate(e)
    return value.labels, value.edges


def eval_outcome(fn, e):
    res = outcome(fn, e)
    if res[0] == "ok":
        labels, edges = res[1]
        return ("ok", list(labels.items()), frozenset(edges))
    return res


def parse_outcome(fn, text):
    res = outcome(fn, text)
    return ("ok", oracles.format_expression(res[1])) if res[0] == "ok" else res


def check_text(text):
    want = parse_outcome(oracles.parse_expression, text)
    assert parse_outcome(parse_expression, text) == want, text
    if want[0] == "ok":
        e = parse_expression(text)
        assert format_expression(e) == want[1]
        assert eval_outcome(library_eval, e) == eval_outcome(oracles._eval, e), text
    return want[0]


def check_expression(e):
    assert format_expression(e) == oracles.format_expression(e)
    assert eval_outcome(library_eval, e) == eval_outcome(oracles._eval, e)


def test_builder_output_and_p4_fixture():
    exprs = builder_expressions() + [oracles.parse_expression(P4_EXPR_TEXT)]
    for e in exprs:
        check_expression(e)
        assert check_text(format_expression(e)) == "ok"


EDGE_CASES = [
    "", "   ", "\n\n", "(", ")", "(leaf", "(leaf 1", "(leaf 1 a", "(leaf 1 a)",
    "(leaf 0 a)", "(leaf -2 a)", "(leaf x a)", "(leaf 1 ( )", "(leaf 1 ))",
    "(leaf 1 -)", "(leaf 1 -5)", "(leaf 1 v-3)", "(leaf 1 v)", "(leaf 1 v²)",
    "(leaf 1_0 a)", "(leaf +1 a)", "(leaf ١ a)", "(leaf 1 a b)",
    "(rel 1 1 (leaf 1 a))", "(rel 1 2 (leaf 1 a)", "(adde 2 2 (leaf 1 a))",
    "(adde 0 2 (leaf 1 a) x)", "(union (leaf 1 a))", "(union (leaf 1 a) (leaf 2 a))",
    "(union (leaf 1 v1) (leaf 2 1))", "(leaf 1 a) (leaf 1 b)", "(leaf 1 a) junk",
    "\n\t(foo 1 2)", "((leaf 1 a))", "(union\r\n (leaf 1 a)\r\n\t(leaf 0 b))",
    "(union (leaf 1 a)\n  (leaf b))", "(adde 1 2\n(union (leaf 1 a)\n(leaf 2 b))\n)\n",
    "(rel 1 2 (union (leaf 1 a) (rel 3 3 (leaf 1 b))))",
]


def test_edge_cases():
    for text in EDGE_CASES:
        check_text(text)


FRAGMENTS = ["(", ")", " ", "\n", "\t", "\r\n", "0", "1", "3", "6", "-", "v",
             "v2", "x", "²", "leaf", "union", "rel", "adde", "(leaf 2 v0)"]
NUMBER = re.compile(r"\d+")
NUMBERS = ["0", "1", "2", "3", "4", "5", "6", "12"]


def mutate(text: str, rng: random.Random) -> str:
    """One to three random edits: delete, insert or replace a piece, cut
    the tail, copy a stretch elsewhere (repeating vertex ids), or rewrite
    one number (a label or a vertex id)."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        kind = rng.randrange(6)
        if kind == 0:
            text = text[:i] + text[j:]
        elif kind == 1:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(FRAGMENTS) + text[j:]
        elif kind == 3:
            text = text[:i]
        elif kind == 4:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + text[i:i + rng.randint(1, 30)] + text[k:]
        else:
            numbers = list(NUMBER.finditer(text))
            if numbers:
                m = rng.choice(numbers)
                text = text[:m.start()] + rng.choice(NUMBERS) + text[m.end():]
    return text


# the start of each error message of the parser, all of which the
# mutations must reach
MESSAGES = ("unexpected end of input", "expected '('", "expected ')'",
            "unknown operator", "expected a label", "expected a source label",
            "expected a target label", "expected a vertex identifier",
            "trailing input", "labels are positive integers",
            "relabel needs two distinct labels", "add-edges needs two distinct labels",
            "duplicate vertex id ")


def test_seeded_mutations_of_formatted_texts():
    rng = random.Random(902)
    texts = [format_expression(e) for e in builder_expressions()[:40]] + [P4_EXPR_TEXT]
    seen = {"ok": 0}
    for _ in range(MUTATIONS):
        text = rng.choice(texts)
        if rng.random() < 0.3:
            text = text.replace(" ", rng.choice([" \n", "\n  ", "\t", "  "]))
        res = parse_outcome(oracles.parse_expression, text := mutate(text, rng))
        check_text(text)
        if res[0] == "ok":
            seen["ok"] += 1
        else:
            message = res[2].split(": ", 1)[-1] if res[3] else res[2]
            hit = [m for m in MESSAGES if message.startswith(m)]
            assert hit, res
            seen[hit[0]] = seen.get(hit[0], 0) + 1
    assert seen["ok"] >= MUTATIONS // 10, seen
    assert set(MESSAGES) <= set(seen), seen


def random_expression(rng: random.Random, leaves: int, ids: int):
    """A random expression on ``leaves`` leaves with ids drawn from
    range(ids), so that ids repeat when ids < leaves."""
    parts = [Leaf(rng.randint(1, 4), rng.randrange(ids)) for _ in range(leaves)]
    while len(parts) > 1 or rng.random() < 0.5:
        i = rng.randrange(len(parts))
        op = rng.randrange(3) if len(parts) > 1 else rng.randrange(1, 3)
        a, b = rng.sample(range(1, 5), 2)
        if op == 0:
            j = rng.randrange(len(parts) - 1)
            j += j >= i
            parts[i] = Union_(parts[i], parts[j])
            del parts[j]
        elif op == 1:
            parts[i] = Relabel(a, b, parts[i])
        else:
            parts[i] = AddEdges(a, b, parts[i])
    return parts[0]


def test_random_expressions_with_repeated_ids():
    rng = random.Random(903)
    errors = 0
    for _ in range(400):
        leaves = rng.randint(1, 12)
        e = random_expression(rng, leaves, rng.randint(max(1, leaves - 3), leaves))
        check_expression(e)
        check_text(format_expression(e))
        errors += eval_outcome(library_eval, e)[0] == "error"
    assert errors > 50

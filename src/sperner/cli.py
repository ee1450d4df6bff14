"""Command-line interface.

Subcommands: hyp-check, decompose, cwd, eval, dominate, generate, sweep.
Exit codes: 0 = success / all predicates hold / no disagreement, 1 = some
predicate is false or a disagreement was found, 2 = usage or parse error,
an input outside the requested class, a size cap, or a failed self-check.
Every randomized command embeds its seed in the output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import textio
from .cliquewidth import (ExpressionError, built, evaluate, format_expression,
                          parse_expression)
from .decomposition import GRAPH_CLASSES, DecompositionError, tree_to_text
from .domination import (DominationError, brute_force, is_h_free_split,
                         solve_h_free_split)
from .generators import (random_bigraph_2p3_free, random_one_sperner,
                         random_split_h_free)
# find_induced is not called here; it stays bound because perfbench's
# tracer test expects this module among the aliases it rebinds
from .graphs import GraphError, find_induced  # noqa: F401
from .hypergraph import (HLeaf, Hypergraph, HypergraphError, decompose,
                         is_conformal, is_dually_sperner, is_one_sperner,
                         is_sperner, recompose)
from .sweeps import SUITES
from .threshold import (ThresholdError, k_asummability_witness,
                        threshold_witness)


def _load(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _emit(args, records: list[dict], text_lines: list[str]):
    if args.format == "records":
        for r in records:
            print(json.dumps(r, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_hyp_check(args) -> int:
    h = textio.read_hypergraph(_load(args.path))
    tw = threshold_witness(h)
    aw = k_asummability_witness(h, 2)
    preds = [
        ("sperner", is_sperner(h), None),
        ("dually-sperner", is_dually_sperner(h), None),
        ("1-sperner", is_one_sperner(h), None),
        ("conformal", is_conformal(h), None),
        ("threshold", tw is not None,
         None if tw is None else textio.threshold_witness_to_text(h, tw).strip()),
        ("2-asummable", aw is None,
         None if aw is None else textio.asummability_witness_to_text(aw).strip()),
    ]
    lines = []
    records = []
    for name, val, wit in preds:
        lines.append(f"{name}: {str(val).lower()}")
        if wit:
            lines.extend("  " + w for w in wit.splitlines())
        records.append({"predicate": name, "value": val, "witness": wit})
    _emit(args, records, lines)
    return 0 if all(v for _, v, _ in preds) else 1


def cmd_decompose(args) -> int:
    if args.kind == "hypergraph":
        h = textio.read_hypergraph(_load(args.path))
        tree = decompose(h)
        if recompose(tree) != h:
            raise HypergraphError("the decomposition tree does not recompose to the input")
        print(_hyper_tree_text(tree))
        return 0
    g = textio.read_graph(_load(args.path))
    sys.stdout.write(tree_to_text(GRAPH_CLASSES[args.kind](g)))
    return 0


def _hyper_tree_text(tree, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(tree, HLeaf):
        edges = "{}" if not tree.base.edge_masks else "{{}}"
        return f"{pad}leaf edges={edges}"
    return (f"{pad}z={tree.z}\n"
            + _hyper_tree_text(tree.left, indent + 1) + "\n"
            + _hyper_tree_text(tree.right, indent + 1))


def cmd_cwd(args) -> int:
    g = textio.read_graph(_load(args.path))
    expr = built(GRAPH_CLASSES[args.kind](g))
    if evaluate(expr, k=5).to_graph() != g:
        raise ExpressionError("the 5-expression does not evaluate to the input graph")
    print(format_expression(expr))
    return 0


def cmd_eval(args) -> int:
    expr = parse_expression(_load(args.path))
    value = evaluate(expr)
    sys.stdout.write(textio.write_graph(value.to_graph()))
    return 0


def cmd_dominate(args) -> int:
    g = textio.read_graph(_load(args.path))
    variants = [args.variant] if args.variant != "all" else \
        ["dominating", "total", "connected"]
    method = args.method
    if method == "auto":
        method = "dp" if is_h_free_split(g) else "brute"
    lines = []
    records = []
    for variant in variants:
        if method == "dp":
            res = solve_h_free_split(g, variant)
        else:
            res = brute_force(g, variant, cap=args.max_n)
        if res.infeasible:
            lines.append(f"{variant} infeasible")
            records.append({"variant": variant, "infeasible": True,
                            "method": method})
        else:
            wit = " ".join(str(v) for v in sorted(res.witness))
            lines.append(f"{variant} {res.size} {wit}".rstrip())
            records.append({"variant": variant, "size": res.size,
                            "witness": sorted(res.witness), "method": method})
    _emit(args, records, lines)
    return 0


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    print(f"# kind={args.kind} size={args.size} seed={args.seed}")
    if args.kind == "glue-tree":
        h = random_one_sperner(args.size, rng) if args.size else Hypergraph([], [])
        if not is_one_sperner(h):
            raise HypergraphError("the generator produced a hypergraph that is not 1-Sperner")
        sys.stdout.write(textio.write_hypergraph(h))
    elif args.kind == "in-class-split":
        ls = random_split_h_free(max(1, args.size), rng)
        sys.stdout.write(textio.write_graph(ls.g))
    else:
        lb = random_bigraph_2p3_free(max(1, args.size), rng)
        sys.stdout.write(textio.write_graph(lb.g))
    return 0


def cmd_sweep(args) -> int:
    kwargs = {}
    if args.suite in ("threshold-equiv", "domishold-equiv"):
        kwargs = {"max_n": min(args.max_n, 6), "seed": args.seed}
    elif args.suite in ("decomposition-roundtrip", "graph-decomposition", "cwd-roundtrip"):
        kwargs = {"max_n": args.max_n, "seed": args.seed}
    elif args.suite in ("domination", "transversal-involution"):
        kwargs = {"seed": args.seed}
    rep = SUITES[args.suite](**kwargs)
    if args.format == "records":
        print(json.dumps({"suite": rep.name, "passed": rep.passed,
                          "instances": rep.instances, "seed": rep.seed,
                          "caps": rep.caps, "disagreements": rep.disagreements,
                          "notes": rep.notes}, sort_keys=True))
    else:
        for line in rep.lines():
            print(line)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sperner",
        description="1-Sperner hypergraphs, threshold graph theory, "
                    "matrix-partition decompositions, clique-width builders, "
                    "and exact domination solvers.")
    ap.add_argument("--format", choices=("text", "records"), default="text")
    ap.add_argument("--seed", type=int, default=177)
    ap.add_argument("--max-n", type=int, default=20, dest="max_n")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hyp-check", help="run all hypergraph predicates on a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_hyp_check)

    p = sub.add_parser("decompose", help="print a decomposition tree")
    p.add_argument("path")
    p.add_argument("--kind", choices=("hypergraph", *GRAPH_CLASSES),
                   default="hypergraph")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cwd", help="print a 5-expression for an in-class graph")
    p.add_argument("path")
    p.add_argument("--kind", choices=tuple(GRAPH_CLASSES), default="split-H")
    p.set_defaults(func=cmd_cwd)

    p = sub.add_parser("eval", help="evaluate a k-expression file to a graph")
    p.add_argument("path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dominate", help="solve a domination variant")
    p.add_argument("path")
    p.add_argument("--variant", choices=("dominating", "total", "connected",
                                         "all"), default="all")
    p.add_argument("--method", choices=("auto", "brute", "dp"), default="auto")
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("generate", help="emit a random instance")
    p.add_argument("--kind", choices=("glue-tree", "in-class-split",
                                      "in-class-bigraph"), default="glue-tree")
    p.add_argument("--size", type=int, default=8)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (textio.ParseError, ExpressionError, HypergraphError, GraphError,
            DecompositionError, DominationError, ThresholdError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

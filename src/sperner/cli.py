"""Command-line interface.

Subcommands: hyp-check, decompose, cwd, eval, dominate, generate, sweep.
Exit codes: 0 = success / all predicates hold / no disagreement, 1 = some
predicate is false or a disagreement was found, 2 = usage or parse error,
an input outside the requested class, a size cap, a failed self-check, or
a stdout closed by its reader (``| head``; nothing more is printed).
Every randomized command embeds its seed in the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import textio
from .bitset import minimal_masks
from .cliquewidth import (ExpressionError, built, evaluate, format_expression,
                          parse_expression)
from .decomposition import (GRAPH_CLASSES, DecompositionError,
                            check_decomposition_tree, tree_to_text)
from .domination import (VARIANTS, DominationError, OutOfClassError,
                         brute_force, solve_h_free_split_all)
from .generators import (random_bigraph_2p3_free, random_one_sperner,
                         random_split_h_free)
# find_induced is not called here; it stays bound because perfbench's
# tracer test expects this module among the aliases it rebinds
from .graphs import Graph, GraphError, find_induced  # noqa: F401
from .hypergraph import (HLeaf, Hypergraph, HypergraphError, decompose,
                         gluing_preorder, is_conformal, is_conformal_on_tree,
                         is_dually_sperner, is_one_sperner, preorder_depths,
                         recompose)
from .sweeps import SUITES
from .threshold import (ThresholdError, ThresholdWitness, k_asummability_witness,
                        threshold_certificate_from)


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
    # Where each printed line comes from. One gluing scan runs first.
    # * It succeeds: h is 1-Sperner by the gluing lemma, hence Sperner and
    #   dually Sperner, so the three Sperner lines are true with no pair
    #   scan; conformal is folded over the tree (is_conformal_on_tree), and
    #   the threshold step folds its (w, t) over the same tree.
    # * It fails: the minimal hyperedges are computed once. The distinct
    #   hyperedges are Sperner iff all of them are minimal; dually-sperner
    #   is the pair scan, conformal the clique search, and the minimal
    #   hyperedges feed the regularity pre-test and the LP.
    # The threshold step's verified certificate decides 2-asummability too.
    # A separating (w, t) proves k-asummability for every k: k independent
    # and k dependent sets with equal characteristic sums would have equal
    # total weight, below k*t and at least k*t. An irregular input's
    # incomparable pair is itself a 2-summability witness. So only regular
    # non-threshold inputs are searched (and meet the search's vertex cap).
    order = gluing_preorder(h)
    if order is not None:
        minimal = None
        sperner = dually = True
        conformal = is_conformal_on_tree(order)
    else:
        minimal = minimal_masks(h.edge_masks)
        sperner, dually = minimal == h.edge_masks, is_dually_sperner(h)
        conformal = is_conformal(h)
    cert = threshold_certificate_from(h, order, minimal)
    if isinstance(cert, ThresholdWitness):
        tw, aw = cert, None
    else:
        tw, aw = None, cert if cert is not None else k_asummability_witness(h, 2)
    preds = [
        ("sperner", sperner, None),
        ("dually-sperner", dually, None),
        # 1-Sperner: min difference >= 1 (Sperner) and <= 1 (dually Sperner)
        ("1-sperner", sperner and dually, None),
        ("conformal", conformal, None),
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
    tree = GRAPH_CLASSES[args.kind](g)
    check_decomposition_tree(g, tree, args.kind)
    sys.stdout.write(tree_to_text(tree))
    return 0


def _hyper_tree_text(tree) -> str:
    """One line per node in preorder, indented two spaces per level
    (``preorder_depths``)."""
    lines = []
    for x, depth in preorder_depths(tree):
        pad = "  " * depth
        if isinstance(x, HLeaf):
            edges = "{}" if not x.base.edge_masks else "{{}}"
            lines.append(f"{pad}leaf edges={edges}")
        else:
            lines.append(f"{pad}z={x}")
    return "\n".join(lines)


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
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    solved = None
    if args.method != "brute":
        # the pipeline decides membership; auto sends the rest to brute force
        try:
            solved = solve_h_free_split_all(g)
        except OutOfClassError:
            if args.method == "dp":
                raise
    if solved is None:
        method = "brute"
        results = [brute_force(g, v, cap=args.max_n) for v in variants]
    else:
        method = "dp"
        results = [solved[VARIANTS.index(v)] for v in variants]
    lines = []
    records = []
    for res in results:
        if res.infeasible:
            lines.append(f"{res.variant} infeasible")
            records.append({"variant": res.variant, "infeasible": True,
                            "method": method})
        else:
            wit = " ".join(str(v) for v in sorted(res.witness))
            lines.append(f"{res.variant} {res.size} {wit}".rstrip())
            records.append({"variant": res.variant, "size": res.size,
                            "witness": sorted(res.witness), "method": method})
    _emit(args, records, lines)
    return 0


def cmd_generate(args) -> int:
    if args.size < 0:
        raise GraphError(f"--size must be non-negative, got {args.size}")
    rng = random.Random(args.seed)
    print(f"# kind={args.kind} size={args.size} seed={args.seed}")
    if args.kind == "glue-tree":
        h = random_one_sperner(args.size, rng) if args.size else Hypergraph([], [])
        if not is_one_sperner(h):
            raise HypergraphError("the generator produced a hypergraph that is not 1-Sperner")
        sys.stdout.write(textio.write_hypergraph(h))
    else:
        make = (random_split_h_free if args.kind == "in-class-split"
                else random_bigraph_2p3_free)
        g = make(args.size, rng).g if args.size else Graph(0, [])
        sys.stdout.write(textio.write_graph(g))
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
    p.add_argument("--variant", choices=(*VARIANTS, "all"), default="all")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call; parsing leaves an
    ``ArgumentParser`` unchanged, so one serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # the command is looked up now, not taken from the parser's defaults,
    # so a cmd_* rebound on this module after the parser was built runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return code
    except (textio.ParseError, ExpressionError, HypergraphError, GraphError,
            DecompositionError, DominationError, ThresholdError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull (the Python docs'
        # idiom), so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

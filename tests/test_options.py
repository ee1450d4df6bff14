"""Every defaulted parameter of the package, pinned.

A parameter with a default is an option: each one adds configurations
that the tests and the benchmark must cover. An option that only tests
set belongs in a module constant, which a test can monkeypatch. Adding
an option therefore needs a visible edit to ``OPTIONS`` below.
"""

import ast
from pathlib import Path

import sperner

# module.function(parameter), nested names joined by dots, in file order
OPTIONS = [
    "cli.main(argv)",
    "cliquewidth._view(at)",
    "cliquewidth._view(starts)",
    "cliquewidth.evaluate(k)",
    "decomposition.DecompositionError.__init__(witness)",
    "decomposition._containment_witness(restrict)",
    "domination.is_dominating(variant)",
    "domination.brute_force(cap)",
    "generators.random_graph(p)",
    "graphs.Graph.__init__(edges)",
    "hypergraph.Hypergraph.__init__(edges)",
    "hypergraph.preorder_depths(leaf_type)",
    "hypergraph.fold_preorder(leaf_type)",
    "recognition.all_split_partitions(base)",
    "sweeps.threshold_equivalence_sweep(max_n)",
    "sweeps.threshold_equivalence_sweep(seed)",
    "sweeps.domishold_equivalence_sweep(max_n)",
    "sweeps.domishold_equivalence_sweep(seed)",
    "sweeps.decomposition_roundtrip_sweep(max_n)",
    "sweeps.decomposition_roundtrip_sweep(seed)",
    "sweeps.transversal_involution_sweep(seed)",
    "sweeps.graph_decomposition_sweep(max_n)",
    "sweeps.graph_decomposition_sweep(seed)",
    "sweeps.cliquewidth_roundtrip_sweep(max_n)",
    "sweeps.cliquewidth_roundtrip_sweep(seed)",
    "sweeps.domination_sweep(seed)",
    "textio.ParseError.__init__(column)",
]


def defaulted_parameters(tree: ast.Module, module: str) -> list[str]:
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                found.extend(f"{module}.{prefix}{child.name}({n})" for n in names)
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def test_defaulted_parameters_are_the_pinned_list():
    found = []
    for path in sorted(Path(sperner.__file__).parent.glob("*.py")):
        found += defaulted_parameters(ast.parse(path.read_text()), path.stem)
    assert found == OPTIONS


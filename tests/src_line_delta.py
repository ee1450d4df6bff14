"""Net ``src/`` line delta against a base revision, split by kind.

Usage: python tests/src_line_delta.py BASE

Diffs every file under ``src/`` in the working tree against ``git show
BASE:path`` and classifies each added or removed line, in the version of
the file it belongs to, as a docstring line (module, class or function
docstring, found with ``ast``), a comment line, a blank line, or code.
Prints the added, removed and net count per kind and in total.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout


def docstring_lines(text: str) -> set[int]:
    """1-based numbers of the lines that hold a docstring."""
    out: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def kinds(text: str) -> list[str]:
    """The kind of every line of a Python file, in order."""
    docs = docstring_lines(text)
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        out.append("docstring" if i in docs else "blank" if not stripped
                   else "comment" if stripped.startswith("#") else "code")
    return out


def changed_lines(base: str, path: str) -> tuple[list[int], list[int]]:
    """(removed line numbers in the base file, added ones in the working file)."""
    removed: list[int] = []
    added: list[int] = []
    for line in git("diff", "-U0", "--no-color", base, "--", path).splitlines():
        m = HUNK.match(line)
        if m:
            old, old_n, new, new_n = (int(x) if x is not None else 1 for x in m.groups())
            removed += range(old, old + old_n)
            added += range(new, new + new_n)
    return removed, added


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base = argv[0]
    paths = git("diff", "--name-only", base, "--", "src").split()
    counts = {k: [0, 0] for k in KINDS}       # kind -> [added, removed]
    for path in paths:
        if not path.endswith(".py"):
            continue
        old = git("show", f"{base}:{path}") if git(
            "ls-tree", base, "--", path) else ""
        new = Path(path).read_text() if Path(path).exists() else ""
        removed, added = changed_lines(base, path)
        old_kinds, new_kinds = kinds(old), kinds(new)
        for i in added:
            counts[new_kinds[i - 1]][0] += 1
        for i in removed:
            counts[old_kinds[i - 1]][1] += 1
    total_a = sum(a for a, _ in counts.values())
    total_d = sum(d for _, d in counts.values())
    print(f"src/: +{total_a} -{total_d}, net {total_a - total_d:+d} lines")
    for k in KINDS:
        a, d = counts[k]
        print(f"  {k:<9} +{a} -{d}, net {a - d:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

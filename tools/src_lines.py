"""Count total and code lines of every module under ``src/``.

    python3 tools/src_lines.py [ROOT]

Prints one ``total code path`` line per ``.py`` file under ROOT (default:
the ``src/`` directory of this checkout), sorted by path, and then their
sums. Code lines are the total less blank lines, comment-only lines and
docstring lines (module, class and function docstrings, found with
``ast``), so that docstring growth and code growth are told apart.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers (1-based) that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(total, code) lines of one module's source."""
    lines = text.splitlines()
    dropped = _docstring_lines(ast.parse(text))
    dropped.update(i for i, line in enumerate(lines, 1)
                   if not line.strip() or line.lstrip().startswith("#"))
    return len(lines), len(lines) - len(dropped)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else ROOT / "src"
    totals = [0, 0]
    for path in sorted(root.rglob("*.py")):
        total, code = count_lines(path.read_text())
        totals[0] += total
        totals[1] += code
        print(f"{total:6d} {code:6d} {path.relative_to(root)}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

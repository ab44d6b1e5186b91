"""Line counts of the modules under ``src/``: all lines, as ``wc -l``
counts them, and code lines, those that are not blank, not a comment and
not part of a docstring (of a module, class or function).

Usage: ``python tools/src_lines.py [SRC_DIR]``; SRC_DIR defaults to this
repository's ``src``.  Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and i not in docstrings)
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    rows = [(str(path.relative_to(src)), *counts(path.read_text()))
            for path in sorted(src.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

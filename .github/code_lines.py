#!/usr/bin/env python3
"""Print the code lines of each module under a source tree, and their total.

    python .github/code_lines.py [DIR]

DIR defaults to the repository's ``src``.  A code line holds a token that is
not a comment; blank lines, comment lines and the lines of docstrings (the
string that opens a module, class or function body) are left out.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's *source*."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

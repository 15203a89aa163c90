"""Count the code lines of a Python package directory.

A code line is a physical line that holds part of a statement: blank lines,
comment-only lines and the lines of docstrings (a string literal that opens
a module, class or function body) are left out.  A statement spread over
several lines counts each of them.  The standard library only.

Usage::

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/rankcp

prints one ``<lines>  <module>`` row per module, sorted by name, and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/rankcp")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    width = len(str(sum(counts.values())))
    for module, count in counts.items():
        print(f"{count:>{width}}  {module}")
    print(f"{sum(counts.values()):>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

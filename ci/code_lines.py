"""Print each module's code lines: no blank, comment-only or docstring lines.

    python ci/code_lines.py [path ...]

A path is a module or a directory of modules (default ``src/asyncadmm``).
A line counts if tokenize finds a token on it other than a comment or a line
break, and ast does not place it inside a module, class or function
docstring.  The last line is the total over every module printed.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    paths = [Path(p) for p in argv or ["src/asyncadmm"]]
    modules = [m for p in paths for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    counts = [(m, code_lines(m)) for m in modules]
    for module, count in counts:
        print(f"{count:6d} {module}")
    print(f"{sum(c for _, c in counts):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

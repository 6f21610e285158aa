"""Size of the package source: physical, code and docstring lines per module and in total.

A docstring line is a line of a module, class or function docstring.  A
code line holds a token outside docstrings and comments; a token that spans
lines (a triple-quoted string) makes each of its lines a code line.  Lines
that are blank or hold only a comment count in neither.

    python tools/src_size.py [DIRECTORY]

DIRECTORY defaults to the checkout's ``src/varbreak``; every ``*.py`` file
directly in it is counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int, int]:
    """Physical, code and docstring lines of one module's source."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.append(first)
    doc_starts = {(node.lineno, node.col_offset) for node in docstrings}
    doc_lines = {line for node in docstrings for line in range(node.lineno, node.end_lineno + 1)}
    code_lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and not (token.type == tokenize.STRING and token.start in doc_starts):
            code_lines.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code_lines), len(doc_lines)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "varbreak"
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}  {'docstring':>9}")
    for name, lines, code, doc in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}  {doc:>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of each module of src/kleinnet.

A code line is a source line that holds a token other than a comment, a
docstring or the layout tokens (newlines, indents, dedents); blank lines
are not code either.  A token that spans lines, such as a triple-quoted
string that is not a docstring, counts on each of its lines.  Docstrings
are the string expressions that open a module, class or function, as
`ast.get_docstring` finds them.

Run from the repository root:

    python3 tools/code_lines.py [DIR]

DIR defaults to src/kleinnet.  Prints one `count path` line per module,
sorted by path, and a `total` line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(span)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/kleinnet")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

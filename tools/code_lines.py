"""Count each module's lines and its code lines.

    python tools/code_lines.py FILE...

Prints one row per file, its total lines then its code lines, and a
total row when given more than one file, like ``wc -l``.  A code line
holds at least one token that is neither a comment nor a docstring:
blank lines, comment-only lines and the lines of module, class and
function docstrings (found with ``ast``) are left out, while a line of
any other string, a multi-line one included, counts.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # the (row, column) start and end of each docstring statement
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_spans(ast.parse(source))
    rows: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(start <= tok.start and tok.end <= end
                                      for start, end in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(rows)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            lines, code = count(f.read())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:7d} {code:7d}  {path}")
    if len(argv) > 2:
        print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

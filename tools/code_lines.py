"""Count code lines in Python sources, one total per path argument.

    python tools/code_lines.py src benchmarks perfbench
    python tools/code_lines.py src/repro/serving/server.py

A line counts when it holds a token that is not a comment and is not
part of a module, class or function docstring. Blank lines, comment-only
lines and docstring lines do not count; every line of any other
multi-line token (a triple-quoted string that is not a docstring, say)
does. Directories are walked for ``*.py`` files. Stdlib only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set:
    """``(line, col)`` of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    docstrings = _docstring_starts(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(path: str) -> list:
    if os.path.isfile(path):
        return [path]
    found = []
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        found.extend(
            os.path.join(root, name) for name in sorted(files)
            if name.endswith(".py")
        )
    return found


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        total = 0
        for name in python_files(path):
            with open(name, encoding="utf-8") as handle:
                total += code_lines(handle.read())
        print(f"{total:>8}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

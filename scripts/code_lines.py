#!/usr/bin/env python3
"""Count the code lines of a Python package or module.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count; a line of a
multi-line string that is not a docstring does.

Example:
    python3 scripts/code_lines.py            # src/spnexplain/
    python3 scripts/code_lines.py path/to/package
    python3 scripts/code_lines.py path/to/module.py
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_path(path: Path) -> int:
    """The code lines of the `.py` file `path`, or of every `.py` file
    under the folder `path`."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(count_source(f.read_text(encoding="utf-8")) for f in files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", nargs="?", default=str(ROOT / "src" / "spnexplain"))
    path = Path(ap.parse_args(argv).path)
    if not path.exists():
        ap.error(f"no such file or folder: {path}")
    print(count_path(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

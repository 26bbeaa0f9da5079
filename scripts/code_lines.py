#!/usr/bin/env python3
"""Count the code lines of a Python package.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count; a line of a
multi-line string that is not a docstring does.

Example:
    python3 scripts/code_lines.py            # src/spnexplain/
    python3 scripts/code_lines.py path/to/package
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


def count_tree(folder: Path) -> int:
    """The code lines of every `.py` file under `folder`."""
    return sum(count_source(path.read_text(encoding="utf-8"))
               for path in sorted(folder.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("folder", nargs="?", default=str(ROOT / "src" / "spnexplain"))
    args = ap.parse_args(argv)
    print(count_tree(Path(args.folder)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

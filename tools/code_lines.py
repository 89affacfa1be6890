"""Count the code lines of the library, per module and in total.

Run from the root of a source checkout:

    python tools/code_lines.py [DIR]

A code line is a line of a .py file under DIR (default src/schrostep) that
is not blank, not a comment alone and not part of a module, class or
function docstring.  A line that holds code and a trailing comment counts.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """The number of code lines in one module's source text."""
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", nargs="?", default=str(ROOT / "src" / "schrostep"))
    args = ap.parse_args(argv)
    top = Path(args.dir)
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("{:6d}  {}".format(n, path.relative_to(top)))
    print("{:6d}  total".format(total))


if __name__ == "__main__":
    sys.exit(main())

"""Code lines of the library: each module of src/arrzeta and the total.

    python3 tools/size.py

A code line is a line that holds a token of code.  Blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function body) are left out; a line that holds code and a comment
counts.  `wc -l` counts all of them, so a docstring cut would read as a
code cut there.  Prints one "lines  module" line per module, in name
order, and then their total.
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "arrzeta")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of lines of source that hold a token of code outside a
    docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main():
    total = 0
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            total += n
            print("%6d  %s" % (n, name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main()

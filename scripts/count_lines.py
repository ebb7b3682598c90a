"""Code lines of each module under src/selfnorm/, and their total.

A code line is a physical line that holds a token other than a comment, a
newline or indentation, and that is not inside a docstring (the first
statement of a module, class or function when it is a string literal).
Blank lines, comments and docstrings are not counted, so rewording prose
cannot move the count.

Usage: python3 scripts/count_lines.py [directory]
"""
import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "selfnorm")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The physical lines of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    src = argv[1] if len(argv) > 1 else SRC
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                n = code_lines(f.read())
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)

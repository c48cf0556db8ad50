"""Print the code lines and the physical lines of each module of src/bs3,
and their totals.

A code line is a line that holds a token of a statement: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) are not counted.  Physical lines are every line
of the file, which is what a fresh process compiles when it imports the
module with no cached bytecode.  Run from anywhere:

    python tests/line_count.py

The count is informational; nothing asserts on it.  pytest does not
collect this file.
"""

import ast
import io
import os
import sys
import tokenize

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "src", "bs3")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of lines of text that hold a statement's token."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main():
    code_total = physical_total = 0
    print("%-16s %5s %8s" % ("module", "code", "physical"))
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), encoding="utf-8") as f:
                text = f.read()
            code, physical = code_lines(text), len(text.splitlines())
            code_total += code
            physical_total += physical
            print("%-16s %5d %8d" % (name, code, physical))
    print("%-16s %5d %8d" % ("total", code_total, physical_total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Each module of the package stays under 4,096 tokens.

CPython's parser doubles its token array when a module passes 4,096
tokens, and one module past that line raised the peak memory of compiling
the package by about 0.2 MB.  The package is compiled at every import when
no bytecode is written, so the step shows in the start-up time and the
peak memory of every short run.  The count is that of ``tokenize``.

Run this file as a script, ``python tests/test_module_size.py``, to print
each module's token count and code lines, and their totals.  A code line is
a line that holds a token outside docstrings and comments; a token that
spans lines, such as a multi-line string, makes each of its lines one.
"""
import ast
import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "involutive"
MODULES = sorted(PACKAGE.glob("*.py"))
# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def token_count(source: bytes) -> int:
    return sum(1 for _ in tokenize.tokenize(io.BytesIO(source).readline))


def code_lines(source: bytes) -> int:
    """The number of lines that hold a token outside docstrings and comments."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in LAYOUT or token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_under_the_parser_token_step(path):
    tokens = token_count(path.read_bytes())
    assert tokens <= 4096, f"{path.name} has {tokens} tokens"


def test_every_module_is_counted():
    assert {path.name for path in MODULES} >= {"engine.py", "index.py", "monomials.py", "polynomials.py"}


def test_code_lines_skip_docstrings_and_comments():
    source = b'''"""Module docstring."""
# a comment
import os  # a trailing comment


def f(x):
    """A docstring
    on two lines."""

    text = """a string
    on two lines"""
    return (x,
            text)


class C:
    "A one-line docstring."
    y = "not a docstring"
'''
    # import, def, text (two lines), return (two lines), class, y
    assert code_lines(source) == 8


if __name__ == "__main__":
    total_tokens = total_lines = 0
    for path in MODULES:
        source = path.read_bytes()
        tokens, lines = token_count(source), code_lines(source)
        total_tokens += tokens
        total_lines += lines
        print(f"{path.name:16} {tokens:6} tokens {lines:6} code lines")
    print(f"{'total':16} {total_tokens:6} tokens {total_lines:6} code lines")

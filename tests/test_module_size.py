"""Each module of the package stays under 4,096 tokens.

CPython's parser doubles its token array when a module passes 4,096
tokens, and one module past that line raised the peak memory of compiling
the package by about 0.2 MB.  The package is compiled at every import when
no bytecode is written, so the step shows in the start-up time and the
peak memory of every short run.  The count is that of ``tokenize``.
"""
import tokenize
from pathlib import Path

import pytest

import involutive

MODULES = sorted(Path(involutive.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_under_the_parser_token_step(path):
    with path.open("rb") as source:
        tokens = sum(1 for _ in tokenize.tokenize(source.readline))
    assert tokens <= 4096, f"{path.name} has {tokens} tokens"


def test_every_module_is_counted():
    assert {path.name for path in MODULES} >= {"engine.py", "index.py", "monomials.py", "polynomials.py"}

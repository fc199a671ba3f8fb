"""The oracle never relies on the code it checks.

``buchberger``, ``normal_form`` and ``same_ideal`` in ``polynomials`` check
the involutive engine's results.  So ``polynomials`` and the two modules it
builds on, ``index`` and ``monomials``, import nothing from ``divisions``,
``engine`` or ``completion``: not at the top, not inside a function, not
for type checking only.
"""
import ast
from pathlib import Path

import pytest

import involutive

PACKAGE = Path(involutive.__file__).parent
ORACLE = ("polynomials.py", "index.py", "monomials.py")
CHECKED = {"divisions", "engine", "completion"}


def imported_modules(tree):
    """The package modules that the import statements of tree name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("involutive.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:
                out |= {alias.name for alias in node.names}
            elif node.module and node.module.startswith("involutive"):
                parts = node.module.split(".")
                out |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
    return out


@pytest.mark.parametrize("name", ORACLE)
def test_oracle_modules_import_no_engine_code(name):
    tree = ast.parse((PACKAGE / name).read_text())
    assert not imported_modules(tree) & CHECKED, name


def test_every_import_form_is_read():
    forms = [
        "from .divisions import grow_table",
        "from . import engine",
        "import involutive.completion",
        "from involutive.divisions import Division",
        "from involutive import engine",
        "def f():\n    from .completion import minimal_monomial_completion",
    ]
    for source in forms:
        assert imported_modules(ast.parse(source)) & CHECKED, source
    assert imported_modules(ast.parse("from .index import _Reducers\nimport itertools")) == {"index"}

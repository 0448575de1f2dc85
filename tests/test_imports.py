"""Every name a gammavar submodule imports from a sibling module is used there.

A stdlib ``ast`` check: ``from .x import name`` in a submodule (the package
``__init__`` re-exports, so it is exempt) must be followed by a use of
``name`` in that module's code.
"""

import ast
from pathlib import Path

import pytest

import gammavar

SUBMODULES = sorted(
    path for path in Path(gammavar.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda path: path.stem)
def test_sibling_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} never uses {unused}"

"""Import hygiene: sibling imports are used, and documented names exist.

A stdlib ``ast`` check: ``from .x import name`` in a submodule (the package
``__init__`` re-exports, so it is exempt) must be followed by a use of
``name`` in that module's code.  The README's library entry points block
must import as written.
"""

import ast
from pathlib import Path

import pytest

import gammavar

README = Path(__file__).parent.parent / "README.md"
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


def test_the_readme_entry_points_import():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from gammavar import (")
    exec(compile(block, str(README), "exec"), {})

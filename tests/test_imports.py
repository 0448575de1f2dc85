"""Import hygiene: sibling imports are used, definitions are live, and
documented names exist.

Stdlib ``ast`` checks: ``from .x import name`` in a submodule (the package
``__init__`` re-exports, so it is exempt) must be followed by a use of
``name`` in that module's code, and every module-level function, class and
constant is used by package code outside its own body or assignment, or
listed in ``gammavar.__all__``, and every public method or property of a
class is read by name outside its own body, or allowed with a reason.
The README's library entry points block must import as written.
"""

import ast
from collections import Counter
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


def _defined(top) -> set[str]:
    """The names a top-level statement defines: a function's or class's,
    or an assignment's target names."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {top.name}
    if isinstance(top, ast.Assign):
        targets = top.targets
    elif isinstance(top, ast.AnnAssign):
        targets = [top.target]
    else:
        return set()
    return {
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    }


def _uses(tree):
    """(the names its top-level statement defines, name) for each name
    loaded and each attribute read in a module."""
    for top in tree.body:
        owners = frozenset(_defined(top))
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield owners, node.id
            elif isinstance(node, ast.Attribute):
                yield owners, node.attr


def test_every_definition_is_used_or_exported():
    # functions, classes and module-level constants; __all__ and
    # __version__ are read from outside the package
    package = Path(gammavar.__file__).parent
    definitions, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            definitions += [(path.stem, name) for name in sorted(_defined(top))]
        used.update((path.stem, owners, name) for owners, name in _uses(tree))
    dead = [
        f"{module}.{name}"
        for module, name in definitions
        if name not in gammavar.__all__
        and name not in ("__all__", "__version__")
        and not any(
            use == name and not (where == module and name in owners)
            for where, owners, use in used
        )
    ]
    assert not dead, f"defined but never used nor exported: {dead}"


# Public members that no package code reads, each with the reason it stays
UNREAD_MEMBERS = {
    "spaces.NormedSpace.l1": "the constructor that pairs with l2 and linf",
    "random_sums.PoolSeed.generate_state": "numpy's ISeedSequence interface, which PCG64 calls",
}


def _members(tree):
    """(class name, member name, node) for each public method or property
    defined in a class body of a module."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name, node


def _attribute_reads(node) -> list[str]:
    return [
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]


def test_every_public_member_is_read():
    # a member counts as read where package code outside its own
    # definition reads an attribute of its name
    package = Path(gammavar.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    reads = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    unread = {
        f"{module}.{cls}.{name}"
        for module, tree in trees.items()
        for cls, name, node in _members(tree)
        if reads[name] == _attribute_reads(node).count(name)
    }
    assert unread == set(UNREAD_MEMBERS), (
        f"public members no package code reads: {sorted(unread - set(UNREAD_MEMBERS))}; "
        f"allowed but read or gone: {sorted(set(UNREAD_MEMBERS) - unread)}"
    )


def test_the_readme_entry_points_import():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from gammavar import (")
    exec(compile(block, str(README), "exec"), {})


def test_the_suites_import_no_private_name_of_the_ensemble_layers():
    # the suites reach random sums and ensembles through their public names
    path = Path(gammavar.__file__).parent / "suites.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("random_sums", "brownian")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, f"suites.py imports {private}"

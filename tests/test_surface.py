"""No public function without a caller, and no private one without a use.

Every public module-level def or class in src/fowlerlab is either exported
in fowlerlab.__all__ or used by name somewhere in the package source, and
every private one (a leading underscore) is used by name in that source.
"""

import ast
from pathlib import Path

import fowlerlab

SRC = Path(__file__).resolve().parent.parent / "src" / "fowlerlab"


def _public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _private_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _used_names(tree: ast.Module) -> set[str]:
    # A definition's own name is not an ast.Name, so it never counts as a use.
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _trees():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "dynamics.py" in trees
    return trees


def test_every_public_definition_is_exported_or_used():
    trees = _trees()
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    exported = set(fowlerlab.__all__)
    orphans = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in exported and name not in used
    ]
    assert orphans == []


def test_every_private_definition_is_used():
    # Tests do not count as uses: a private second path that only tests
    # reach is dead code in the package.
    trees = _trees()
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    orphans = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert orphans == []

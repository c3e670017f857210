"""No public function without a caller, and no private one without a use.

Every module-level def or class in src/fowlerlab, public or private, and
every name in fowlerlab.__all__ is used by name somewhere in the package
source outside __init__.py: being exported is not a use.  Every public
method or property of a public class is used as an attribute (obj.name)
there.
Likewise every run-config key is read through the CLI option table, and
the integrator settings are one list in the code and both schemas.  No
module in the package or its tests imports a name it never uses.
"""

import ast
import dataclasses
import inspect
import json
from pathlib import Path

import fowlerlab
from fowlerlab import IntegratorSettings
from fowlerlab.cli import OPTIONS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fowlerlab"


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


def _public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    # Properties, class methods and plain methods alike; dunders are private.
    return [
        (cls.name, node.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _used_names(tree: ast.Module) -> set[str]:
    # A definition's own name is not an ast.Name, and a name assigned or
    # deleted is not read: only a Load counts as a use.
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _used_attributes(tree: ast.Module) -> set[str]:
    # Only obj.name reaches a method: a bare name may be a local variable
    # (dynamics has one called positive).
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _trees():
    # __init__.py only re-exports: its imports and __all__ are not uses.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert "dynamics.py" in trees
    return trees


def test_every_public_definition_is_used():
    trees = _trees()
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    orphans = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in used
    ]
    assert orphans == []
    # The constants that __all__ exports too; the errors module is used
    # through its classes, checked above.
    assert [name for name in fowlerlab.__all__
            if name not in used and not inspect.ismodule(getattr(fowlerlab, name))] == []


def test_every_public_method_is_used():
    trees = _trees()
    used = set().union(*(_used_attributes(tree) for tree in trees.values()))
    orphans = [
        f"{module}:{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in _public_methods(tree)
        if name not in used
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


def _unused_imports(tree: ast.Module) -> list[str]:
    # Module-level imports only.  A name listed in __all__ is re-exported,
    # which is a use; __future__ imports bind no name.
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }
    return [name for name in bound if name not in used | exported]


def test_no_unused_module_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert SRC / "dynamics.py" in paths and TESTS / "test_surface.py" in paths
    unused = [
        f"{path.relative_to(TESTS.parent)}:{name}"
        for path in paths
        for name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert unused == []


def _schema_keys(properties: dict, prefix: str = "") -> set[str]:
    keys = set()
    for name, spec in properties.items():
        if "properties" in spec:
            keys |= _schema_keys(spec["properties"], f"{prefix}{name}.")
        else:
            keys.add(prefix + name)
    return keys


def test_every_config_key_is_an_option():
    schema = json.loads((SRC / "schemas" / "run_config.schema.json").read_text())
    declared = {
        ".".join(part for part in key.split(".") if not part.isdigit())
        for option in OPTIONS if option.key is not None
        for key in option.key.split()
    }
    assert declared == _schema_keys(schema["properties"])
    # Each key has a reader: a command that takes it and --config.
    config_commands = next(o.commands for o in OPTIONS if o.flag == "--config")
    assert all(set(o.commands) & set(config_commands) for o in OPTIONS if o.key)


def test_settings_are_one_list():
    # A setting is added or removed in all three places at once.
    fields = [f.name for f in dataclasses.fields(IntegratorSettings)]
    config = json.loads((SRC / "schemas" / "run_config.schema.json").read_text())
    artifact = json.loads((SRC / "schemas" / "trajectory.schema.json").read_text())
    assert list(config["properties"]["settings"]["properties"]) == fields
    assert artifact["properties"]["settings"]["required"] == fields

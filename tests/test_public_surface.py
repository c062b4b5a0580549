"""Every public function, method, property and constant of the package
is read or exported.

A module-level function or constant, or a method or property of a
class, whose name has no leading underscore is public.  One that nothing
in ``src/`` reads and ``__init__`` does not export is dead weight: tests
alone keep it alive, and it drifts from the code that runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import btbranch

SRC = Path(btbranch.__file__).parent


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _exported(init):
    return {alias.asname or alias.name for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _named(tree):
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_or_an_export():
    modules = _modules()
    named = set().union(*map(_named, modules.values()))
    exported = _exported(modules["__init__"])
    dead = [f"{module}.{node.name}" for module, tree in modules.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in named and node.name not in exported]
    assert dead == []


def test_every_public_method_and_property_has_a_caller_or_an_export():
    # the same scan, one level down: a method or property of a class
    # whose name has no leading underscore is read somewhere in src/
    modules = _modules()
    named = set().union(*map(_named, modules.values()))
    exported = _exported(modules["__init__"])
    dead = [f"{module}.{cls.name}.{node.name}"
            for module, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in named and node.name not in exported]
    assert dead == []


def test_every_public_constant_is_read_or_exported():
    # a module-level assignment to a name with no leading underscore
    modules = _modules()
    named = set().union(*map(_named, modules.values()))
    exported = _exported(modules["__init__"])
    dead = [f"{module}.{target.id}" for module, tree in modules.items()
            for node in tree.body if isinstance(node, (ast.Assign,
                                                       ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)
            and not target.id.startswith("_")
            and target.id not in named and target.id not in exported]
    assert dead == []

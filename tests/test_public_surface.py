"""Every public function, method, property and constant of the package
is read or exported.

A module-level function or constant, or a method or property of a
class, whose name has no leading underscore is public.  One that nothing
in ``src/`` reads and ``__init__`` does not export is dead weight: tests
alone keep it alive, and it drifts from the code that runs.

Infinity has one spelling in ``src/``: ``math.inf``, the value
``series.s_val`` gives the zero series.  No module-level constant named
for it holds anything else, and the kind words of a second vocabulary
(``"neg_inf"``, ``"inf"``, ``"two_inf"``) appear only in ``cli.py``,
where a valuation becomes JSON.  A stored ``Series.prec`` of None means
exact; above the storage an exact precision is ``inf`` too, and only the
modules that still read two stored precisions directly use
``series._min_prec``, the helper that takes None as the larger.
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


def _is_math_inf(node):
    """Whether an expression is math.inf or -math.inf, bare or dotted."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id == "inf"
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def test_every_constant_named_for_infinity_is_math_inf():
    modules = _modules()
    other = [f"{module}.{target.id}" for module, tree in modules.items()
             for node in tree.body if isinstance(node, (ast.Assign,
                                                        ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
             if isinstance(target, ast.Name) and "INF" in target.id
             and not _is_math_inf(node.value)]
    assert other == []


def _strings(node, scope=""):
    """(scope, text) for each string literal under node; the scope is the
    dotted name of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from _strings(child, f"{scope}.{child.name}".lstrip("."))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield scope, child.value
        else:
            yield from _strings(child, scope)


#: the one place outside cli.py that writes "inf": the name of the point
#: at infinity of the projective line, a boundary point, not a valuation
_INF_TEXT = {("geometry", "ProjPoint.render", "inf")}


def test_infinity_kind_words_appear_only_at_the_json_boundary():
    words = {"neg_inf", "inf", "two_inf"}
    found = [(module, scope, text) for module, tree in _modules().items()
             if module != "cli" for scope, text in _strings(tree)
             if text in words]
    assert [f for f in found if f not in _INF_TEXT] == []


#: the modules besides series that take the stored None for "exact" to
#: _min_prec: geometry's _val_sum_capped reads two Series.prec directly
_MIN_PREC_READERS = {"geometry"}


def test_only_the_storage_readers_use_min_prec():
    readers = {module for module, tree in _modules().items()
               if module != "series" and "_min_prec" in _named(tree)}
    assert readers == _MIN_PREC_READERS

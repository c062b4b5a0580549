"""Each reference is defined once, in ``tests/references.py``.

A second copy of a reference drifts from the first, and a reference kept
next to the one that superseded it is a second check of one kernel that
costs as much as the first.  So no other test module defines a function
of ``references.py`` again, nor a reference of its own: a helper named
``_ref*``, ``_reference*`` or ``*_reference`` (a test function may say
what it compares with).
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _functions(path):
    """Every function the module defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _test_modules():
    return [p for p in sorted(TESTS.glob("*.py")) if p.name != "references.py"]


def test_every_reference_is_defined_once():
    references = _functions(TESTS / "references.py")
    again = [f"{p.name}: {name}" for p in _test_modules()
             for name in sorted(_functions(p) & references)]
    assert again == []


def test_no_test_module_keeps_a_reference_of_its_own():
    own = [f"{p.name}: {name}" for p in _test_modules()
           for name in sorted(_functions(p))
           if not name.startswith("test_")
           and (name.startswith(("_ref", "_reference"))
                or name.endswith("_reference"))]
    assert own == []


def test_every_reference_names_its_kernel_in_one_line():
    module = ast.parse((TESTS / "references.py").read_text())
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            doc = ast.get_docstring(node)
            assert doc and "\n" not in doc, node.name

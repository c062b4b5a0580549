"""Precision is given once, where a polynomial is classified.

A QuadPoly records the working precision it was classified at, and a
Datum the one its two polynomials share, so every later step reads the
precision there.  The functions that still take a ``working_prec`` are
pinned here: the places where a polynomial is classified, the
arithmetic helpers that divide or sum a series to a given length, and
decide's checked parameter.  A new precision parameter fails this test
until it is added on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import btbranch

SRC = Path(btbranch.__file__).parent

#: (module, function) for every function that takes working_prec
ALLOWED = {
    # where a polynomial is classified
    ("defects", "classify"), ("defects", "_classify"), ("mat2", "min_poly"),
    ("mat2", "make_pair"), ("geometry", "branch_shape"),
    ("existence", "algebra_spec"),
    # arithmetic helpers
    ("defects", "as_root"), ("existence", "splits"),
    # checked against the datum's precision, ValueError when it differs
    ("existence", "decide"),
}


def _taking_working_prec():
    found = set()
    for module in ("defects", "mat2", "geometry", "existence"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
                if "working_prec" in names:
                    found.add((module, node.name))
    return found


def test_only_the_allowed_functions_take_a_working_precision():
    assert _taking_working_prec() == ALLOWED


def test_no_docstring_asks_one_precision_to_match_another():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for phrase in ("must be the one", "needs p = ", "the one spec was"):
            assert phrase not in text, (path.name, phrase)

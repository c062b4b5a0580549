"""The differential's power: a mutant of either side must fail the self-test.

A suite that cannot fail proves nothing.  Each test here puts one mutant
in place of a function the self-test reaches, by monkeypatching a module
name, runs a cheap fixed-seed self-test and requires at least one
mismatch or disagreement in the suite that owns the mutant.  No file of
the package is changed.

The membership mutants are copies of the Series reference of
``tree.member`` (kept in ``tests/test_tree.py``) with one edit each; the
unedited copy reproduces the self-test report byte for byte.  The
mutants the self-test cannot kill yet are marked ``xfail(strict=True)``
with the open ROADMAP item that owns them, so the gate fails, and the
marker has to come off, once that item lands.
"""

from __future__ import annotations

import dataclasses

import pytest

import btbranch.existence as existence
import btbranch.selftest as selftest
import btbranch.tree as tree
from btbranch.defects import Ideal
from btbranch.geometry import (FoliageContained, FoliageMeet, Overlap,
                               SharedMaxPath, SharedRay, ThickLine)
from btbranch.series import s_add, s_mul, val_ge

RUN = dict(seed=7, count=100)


def _series_member(quad_shift=0, bound_c=True):
    """The Series membership test, the quadratic bound moved by
    ``quad_shift`` and the bound val(c) >= -r kept only if ``bound_c``."""

    def member(q, v):
        z, r = v.center, v.r
        cz = s_mul(q.c, z)
        if not val_ge(s_add(cz, q.d), 0):
            return False
        if bound_c and not val_ge(q.c, -r):
            return False
        if not val_ge(s_add(q.a, cz), 0):
            return False
        quad = s_add(s_add(s_mul(cz, z), s_mul(s_add(q.a, q.d), z)), q.b)
        return val_ge(quad, r + quad_shift)
    return member


def test_the_unedited_copy_reproduces_the_report(monkeypatch):
    want = selftest.run_selftest(**RUN).render()
    monkeypatch.setattr(tree, "member", _series_member())
    assert selftest.run_selftest(**RUN).render() == want


# Dropping val(cz + d) >= 0 is no mutant: on trace-integral input that
# bound follows from the one on a + cz, and the run does not change.
@pytest.mark.parametrize("edit", [dict(quad_shift=1), dict(quad_shift=-1),
                                  dict(bound_c=False)],
                         ids=["quad-r+1", "quad-r-1", "no-c-bound"])
def test_membership_mutants_are_killed(monkeypatch, edit):
    monkeypatch.setattr(tree, "member", _series_member(**edit))
    rep = selftest.run_selftest(**RUN)
    assert rep.pair_mismatched >= 1 and rep.branch_mismatched >= 1


def _deeper(shape):
    """A branch shape one step thicker, or a foliage one level lower."""
    if isinstance(shape, ThickLine):
        return dataclasses.replace(shape, depth=shape.depth + 1)
    return dataclasses.replace(shape, level=shape.level + 1)


def test_branch_shape_mutant_is_killed(monkeypatch):
    real = selftest.branch_shape
    monkeypatch.setattr(selftest, "branch_shape",
                        lambda q, prec: _deeper(real(q, prec)))
    assert selftest.run_selftest(**RUN).branch_mismatched >= 1


@pytest.mark.parametrize("name", ["as_defect", "quad_defect"])
def test_defect_mutants_are_killed(monkeypatch, name):
    real = getattr(selftest, name)

    def off_by_one(a):
        res = real(a)
        if res.ideal.is_zero:
            return res
        return dataclasses.replace(res, ideal=Ideal(res.ideal.val + 1))
    monkeypatch.setattr(selftest, name, off_by_one)
    assert selftest.run_selftest(**RUN).defect_disagreements >= 1


_ITEM_1 = ("ROADMAP item 1: the pair suite's dry run turns a wrong "
           "relative position into a skip")


def _relpos_edit(edit):
    real = selftest.predict_relpos
    return lambda pair: edit(real(pair))


@pytest.mark.xfail(strict=True, reason=_ITEM_1)
@pytest.mark.parametrize("edit", [
    lambda p: (Overlap(p.length + 1)
               if isinstance(p, Overlap) and p.length >= 3 else p),
    lambda p: SharedRay() if isinstance(p, Overlap) and p.length >= 1 else p,
    lambda p: FoliageContained() if isinstance(p, FoliageMeet) else p,
    lambda p: SharedMaxPath() if isinstance(p, SharedRay) else p,
], ids=["overlap-L+1", "overlap-to-ray", "meet-to-contained",
        "ray-to-maxpath"])
def test_relative_position_mutants_are_killed(monkeypatch, edit):
    monkeypatch.setattr(selftest, "predict_relpos", _relpos_edit(edit))
    rep = selftest.run_selftest(**RUN)
    assert rep.pair_mismatched >= 1


def test_negated_splits_is_killed(monkeypatch):
    real = existence.splits
    monkeypatch.setattr(existence, "splits",
                        lambda *args, **kw: not real(*args, **kw))
    assert selftest.run_selftest(**RUN).symbol_disagreements >= 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the symbol suite can confirm only 'splits', so no "
    "division verdict is checked"))
def test_splits_always_true_is_killed(monkeypatch):
    monkeypatch.setattr(existence, "splits", lambda *args, **kw: True)
    assert selftest.run_selftest(**RUN).symbol_disagreements >= 1

"""The differential's power: a mutant of either side must fail the self-test.

A suite that cannot fail proves nothing.  Each test here puts one mutant
in place of a function the self-test reaches, by monkeypatching a module
name, runs a cheap fixed-seed self-test and requires at least one
mismatch or disagreement in the suite that owns the mutant.  Every
mutant the tau-1 run kills must also fail a run over F_4, except
``overlap-L+1``: the one overlap of length 3 or more that run draws,
its radius-4 window sees only as a shorter ray, which bounds neither
length.  No file of the package is changed.

The membership mutants are the Series reference ``_series_member``
(``tests/references.py``) with one edit each, put in place of the
oracle's walk test ``tree._oracle_test`` vertex by vertex; the unedited
reference reproduces the self-test report byte for byte.  The
mutants the self-test cannot kill yet are marked ``xfail(strict=True)``
with the open ROADMAP item that owns them, so the gate fails, and the
marker has to come off, once that item lands.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

import btbranch.existence as existence
import btbranch.geometry as geometry
import btbranch.selftest as selftest
import btbranch.tree as tree
from btbranch.geometry import (FoliageContained, FoliageMeet, Overlap,
                               SharedMaxPath, SharedRay, ThickLine)
from btbranch.tree import Vertex
from references import _series_member

RUN = dict(seed=7, count=100)
RUN_TAU_2 = dict(seed=3, tau=2, count=40, radius=4)


def _walk_test(member):
    """The oracle's walk test, deciding each vertex by ``member``."""
    def make(q, window):
        return lambda p, ks: [k for k in ks if member(q, window.vertex(k))]
    return make


def test_the_unedited_copy_reproduces_the_report(monkeypatch):
    want = selftest.run_selftest(**RUN).render()
    monkeypatch.setattr(tree, "_oracle_test", _walk_test(_series_member))
    assert selftest.run_selftest(**RUN).render() == want


def test_the_unedited_copy_reproduces_the_tau_2_report(monkeypatch):
    want = selftest.run_selftest(**RUN_TAU_2).render()
    monkeypatch.setattr(tree, "_oracle_test", _walk_test(_series_member))
    assert selftest.run_selftest(**RUN_TAU_2).render() == want


# Dropping val(cz + d) >= 0 is no mutant: on trace-integral input that
# bound follows from the one on a + cz, and the run does not change.
@pytest.mark.parametrize("edit", [dict(quad_shift=1), dict(quad_shift=-1),
                                  dict(bound_c=False)],
                         ids=["quad-r+1", "quad-r-1", "no-c-bound"])
def test_membership_mutants_are_killed(monkeypatch, edit):
    monkeypatch.setattr(tree, "_oracle_test",
                        _walk_test(partial(_series_member, **edit)))
    rep = selftest.run_selftest(**RUN)
    assert rep.pair_mismatched >= 1 and rep.branch_mismatched >= 1


def _deeper(shape):
    """A branch shape one step thicker, or a foliage one level lower."""
    if isinstance(shape, ThickLine):
        return dataclasses.replace(shape, depth=shape.depth + 1)
    return dataclasses.replace(shape, level=shape.level + 1)


def _stem_moved(shape):
    """A vertex or edge stem moved one step, each of its vertices to the
    child with the same center; other shapes as they are."""
    if isinstance(shape, ThickLine) and shape.stem:
        return dataclasses.replace(shape, stem=tuple(
            Vertex(v.r + 1, v.center) for v in shape.stem))
    return shape


def _edited_shape(edit):
    real = selftest.branch_shape
    return lambda q, prec: edit(real(q, prec))


def test_branch_shape_mutant_is_killed(monkeypatch):
    monkeypatch.setattr(selftest, "branch_shape", _edited_shape(_deeper))
    assert selftest.run_selftest(**RUN).branch_mismatched >= 1


def test_stem_moved_branch_shape_mutant_is_killed(monkeypatch):
    monkeypatch.setattr(selftest, "branch_shape", _edited_shape(_stem_moved))
    assert selftest.run_selftest(**RUN).branch_mismatched >= 1


def _off_by_one(name):
    """The defect map ``name`` with the valuation of each nonzero ideal
    one too large; (0) stays (0), as inf + 1 = inf."""
    real = getattr(selftest, name)

    def off_by_one(a):
        res = real(a)
        return dataclasses.replace(res, ideal=res.ideal + 1)
    return off_by_one


@pytest.mark.parametrize("name", ["as_defect", "quad_defect"])
def test_defect_mutants_are_killed(monkeypatch, name):
    monkeypatch.setattr(selftest, name, _off_by_one(name))
    assert selftest.run_selftest(**RUN).defect_disagreements >= 1


def _relpos_edit(edit):
    real = selftest.predict_relpos
    return lambda pair: edit(real(pair))


_RELPOS_EDITS = {
    "overlap-L+1": lambda p: (Overlap(p.length + 1)
                              if isinstance(p, Overlap) and p.length >= 3
                              else p),
    "overlap-to-ray": lambda p: (SharedRay() if isinstance(p, Overlap)
                                 and p.length >= 1 else p),
    "meet-to-contained": lambda p: (FoliageContained()
                                    if isinstance(p, FoliageMeet) else p),
    "ray-to-maxpath": lambda p: (SharedMaxPath() if isinstance(p, SharedRay)
                                 else p),
}


@pytest.mark.parametrize("edit", list(_RELPOS_EDITS))
def test_relative_position_mutants_are_killed(monkeypatch, edit):
    monkeypatch.setattr(selftest, "predict_relpos",
                        _relpos_edit(_RELPOS_EDITS[edit]))
    rep = selftest.run_selftest(**RUN)
    assert rep.pair_mismatched >= 1


def _sign_flipped_fake_distance():
    """fake_distance with each ramified separable jump added, not
    subtracted: 2 t more per such factor, as the floor reading has it;
    -inf stays -inf."""
    real = geometry.fake_distance

    def flipped(datum):
        return real(datum) + selftest._floor_shift(datum)
    return flipped


@pytest.mark.parametrize("run", [RUN, dict(seed=3, tau=2, count=50,
                                           radius=5)],
                         ids=["tau-1", "tau-2"])
def test_sign_flipped_fake_distance_fails_gate_6(monkeypatch, run):
    # patched in geometry only, so the predictor reads the mutant and the
    # sign tally's own test for a discriminating pair does not
    monkeypatch.setattr(geometry, "fake_distance",
                        _sign_flipped_fake_distance())
    rep = selftest.run_selftest(**run)
    assert rep.tsign_total > 0
    assert rep.tsign_implemented < rep.tsign_total


def _negated_splits():
    real = existence.splits
    return lambda *args, **kw: not real(*args, **kw)


def test_negated_splits_is_killed(monkeypatch):
    monkeypatch.setattr(existence, "splits", _negated_splits())
    assert selftest.run_selftest(**RUN).symbol_disagreements >= 1


# every mutant killed above, as (module, name, the mutant, the count of
# the owning suite that must be nonzero)
_KILLED = {
    "quad-r+1": (tree, "_oracle_test",
                 lambda: _walk_test(partial(_series_member, quad_shift=1)),
                 "branch_mismatched"),
    "quad-r-1": (tree, "_oracle_test",
                 lambda: _walk_test(partial(_series_member, quad_shift=-1)),
                 "branch_mismatched"),
    "no-c-bound": (tree, "_oracle_test",
                   lambda: _walk_test(partial(_series_member, bound_c=False)),
                   "branch_mismatched"),
    "deeper": (selftest, "branch_shape", lambda: _edited_shape(_deeper),
               "branch_mismatched"),
    "stem-moved": (selftest, "branch_shape",
                   lambda: _edited_shape(_stem_moved), "branch_mismatched"),
    "as_defect": (selftest, "as_defect", lambda: _off_by_one("as_defect"),
                  "defect_disagreements"),
    "quad_defect": (selftest, "quad_defect",
                    lambda: _off_by_one("quad_defect"),
                    "defect_disagreements"),
    "negated-splits": (existence, "splits", _negated_splits,
                       "symbol_disagreements"),
    **{name: (selftest, "predict_relpos",
              lambda edit=_RELPOS_EDITS[name]: _relpos_edit(edit),
              "pair_mismatched")
       for name in ("overlap-to-ray", "meet-to-contained", "ray-to-maxpath")},
}


@pytest.mark.parametrize("mutant", list(_KILLED))
def test_every_killed_mutant_is_killed_at_tau_2(monkeypatch, mutant):
    module, name, make, count = _KILLED[mutant]
    monkeypatch.setattr(module, name, make())
    rep = selftest.run_selftest(**RUN_TAU_2)
    assert getattr(rep, count) >= 1
    if module is tree:  # a membership mutant fails the pair suite too
        assert rep.pair_mismatched >= 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: the symbol suite can confirm only 'splits', so no "
    "division verdict is checked"))
def test_splits_always_true_is_killed(monkeypatch):
    monkeypatch.setattr(existence, "splits", lambda *args, **kw: True)
    assert selftest.run_selftest(**RUN).symbol_disagreements >= 1

"""The defect suite's grid minimiser against two enumerations of the grid.

At tau 1 the reference is the bitmask minimiser the suite used before it
worked on series: one bit per coefficient, all 8,192 substitutions h on
exponents -4..8 tried one by one.  At tau 2 it is a direct enumeration
with series over a smaller grid.  Both references are in
``tests/references.py``.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from btbranch.gf2 import field
from btbranch.selftest import (_GRID_HI, _GRID_LO, _grid_basis,
                               _grid_best_val, _run_defect_instance,
                               run_selftest)
from btbranch.series import s_add, s_from_terms, s_mul, s_random
from references import (_MASK_OFF, _ref_brute_ideal_vals,
                        _ref_enumerated_best_val)

F1, F2 = field(1), field(2)

# -- the bitmask reference (tau 1 only) ------------------------------


def _mask_of(a) -> int:
    return sum(1 << (e + _MASK_OFF) for e, _ in a.terms())


def _grid_masks():
    """All (h^2 + h, h^2) mask pairs for h on the substitution grid."""
    exps = range(_GRID_LO, _GRID_HI + 1)
    singles = [1 << (e + _MASK_OFF) for e in exps]
    squares = [1 << (2 * e + _MASK_OFF) for e in exps]
    out = []
    for bits in range(1 << len(singles)):
        h = hsq = 0
        b = bits
        i = 0
        while b:
            if b & 1:
                h |= singles[i]
                hsq |= squares[i]
            b >>= 1
            i += 1
        out.append((hsq ^ h, hsq))
    return out


_GRID = _grid_masks()
_BASES_F1 = {artin: _grid_basis(F1, artin) for artin in (True, False)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_minimiser_matches_the_bitmask_grid_at_tau_one(seed, artin):
    a = s_random(F1, random.Random(seed), -6, 6)
    want = _ref_brute_ideal_vals(_mask_of(a), _GRID, artin)
    assert _grid_best_val(a, _BASES_F1[artin], artin) == want


def test_bitmask_grid_sees_every_outcome():
    # the comparison above is worth something only if the reference
    # returns inf (killed or capped) as well as finite values
    rng = random.Random(5)
    seen = set()
    for _ in range(50):
        a = s_random(F1, rng, -6, 6)
        for artin in (True, False):
            seen.add(_ref_brute_ideal_vals(_mask_of(a), _GRID, artin)
                     == math.inf)
    assert seen == {True, False}


# -- a direct enumeration over F_4 ---------------------------------

_SMALL_LO, _SMALL_HI = -2, 2


def _small_images(fld, artin):
    """p(h) for every h on exponents _SMALL_LO.._SMALL_HI: 4^5 of them."""
    exps = range(_SMALL_LO, _SMALL_HI + 1)
    out = []
    for coeffs in itertools.product(fld.elements(), repeat=len(exps)):
        h = s_from_terms(fld, dict(zip(exps, coeffs)))
        image = s_mul(h, h)
        out.append(s_add(image, h) if artin else image)
    return out


_SMALL = {artin: (_small_images(F2, artin),
                  _grid_basis(F2, artin, _SMALL_LO, _SMALL_HI))
          for artin in (True, False)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_minimiser_matches_direct_enumeration_over_f4(seed, artin):
    a = s_random(F2, random.Random(seed), -4, 4)
    images, basis = _SMALL[artin]
    assert (_grid_best_val(a, basis, artin)
            == _ref_enumerated_best_val(a, images, artin))


# -- the suite at every tau ------------------------------------------

def test_defect_suite_runs_at_tau_two():
    report = run_selftest(seed=3, tau=2, count=5, radius=4)
    assert report.defect_checked == 5
    assert report.defect_disagreements == 0
    assert report.passing


@pytest.mark.parametrize("tau", (2, 3))
def test_defect_instances_agree_with_the_grid(tau):
    fld = field(tau)
    bases = {artin: _grid_basis(fld, artin) for artin in (True, False)}
    rng = random.Random(tau)
    for _ in range(300):
        ok, why = _run_defect_instance(rng, fld, bases)
        assert ok, why

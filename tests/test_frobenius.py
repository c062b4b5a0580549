"""The Frobenius s_square and the split a = xi^2 + t eta^2 against the
product s_mul(a, a) and the hand-built computations they replaced, and
the Artin-Schreier root against the fixed-point iteration; those
references are in ``tests/references.py``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from btbranch.defects import as_defect, as_root, quad_defect
from btbranch.gf2 import field
from btbranch.series import (UndeterminedAtPrecision, s_add, s_from_terms,
                             s_monomial, s_mul, s_split, s_sqrt, s_square,
                             s_truncate)
from references import (_ref_derivative, _ref_even_odd_root,
                        _ref_quad_defect, _ref_solve_artin_schreier,
                        _ref_sqrt)


# -- strategies -----------------------------------------------------

@st.composite
def _series(draw, lo=-8, hi=8, truncated=None):
    """A series over F_2, F_4 or F_8, exact or known mod t^N."""
    fld = field(draw(st.integers(1, 3)))
    terms = draw(st.dictionaries(st.integers(lo, hi),
                                 st.integers(0, fld.order - 1), max_size=10))
    if truncated is None:
        truncated = draw(st.booleans())
    prec = draw(st.integers(lo - 2, hi + 2)) if truncated else None
    return s_from_terms(fld, terms, prec)


def _outcome(fn, *args):
    """The value fn returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (ValueError, UndeterminedAtPrecision) as exc:
        return type(exc), str(exc)


def _extends(new, ref):
    """new is ref with the same coefficients below ref's precision and a
    precision no lower."""
    if ref.prec is None:
        return new == ref
    return (new.prec is not None and new.prec >= ref.prec
            and s_truncate(new, ref.prec) == ref)


# -- the Frobenius ---------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_series())
def test_square_extends_the_product(a):
    assert _extends(s_square(a), s_mul(a, a))


def test_square_squares_each_coefficient():
    fld = field(2)  # F_4 = F_2(g) with g^2 = g + 1
    g = s_monomial(fld, 1, 0b10)
    assert s_square(g) == s_monomial(fld, 2, 0b11)  # g^2 = g + 1
    assert s_square(s_add(g, s_monomial(fld, 0))) == s_from_terms(
        fld, {0: 1, 2: 0b11})


def test_square_of_a_truncated_series_is_known_to_twice_the_precision():
    fld = field(1)
    a = s_from_terms(fld, {1: 1, 2: 1}, 4)  # t + t^2 + O(t^4)
    assert s_square(a) == s_from_terms(fld, {2: 1, 4: 1}, 8)
    assert s_mul(a, a).prec == 5


# -- the even/odd split ----------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_series())
def test_split_recombines_to_the_input(a):
    xi, eta = s_split(a)
    t = s_monomial(a.field, 1)
    assert s_add(s_square(xi), s_mul(t, s_square(eta))) == a
    if a.prec is None:
        assert xi.prec is None and eta.prec is None
    else:
        assert (xi.prec, eta.prec) == ((a.prec + 1) // 2, a.prec // 2)


@settings(max_examples=300, deadline=None)
@given(_series(truncated=True), st.integers(0, 2 ** 20))
def test_split_holds_for_every_completion(a, seed):
    """What the split claims to know is the same for any tail of a."""
    rng = random.Random(seed)
    tail = {e: rng.randrange(a.field.order)
            for e in range(a.prec, a.prec + 6)}
    whole = s_from_terms(a.field, {**dict(a.terms()), **tail})
    for part, full in zip(s_split(a), s_split(whole)):
        assert s_truncate(full, part.prec) == part


@settings(max_examples=400, deadline=None)
@given(_series())
def test_split_matches_the_exact_even_odd_root(a):
    for part, ref in zip(s_split(a), _ref_even_odd_root(a)):
        if a.prec is None:
            assert part == ref
        else:
            assert s_truncate(ref, part.prec) == part


@settings(max_examples=400, deadline=None)
@given(_series())
def test_derivative_extends_the_hand_built_one(b):
    assert _extends(s_square(s_split(b)[1]), _ref_derivative(b))


# -- what is built on them ---------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_series())
def test_sqrt_matches_the_reference(a):
    assert _outcome(s_sqrt, a) == _outcome(_ref_sqrt, a)


@settings(max_examples=400, deadline=None)
@given(_series())
def test_quad_defect_matches_the_reference(a):
    assert _outcome(quad_defect, a) == _outcome(_ref_quad_defect, a)


@settings(max_examples=600, deadline=None)
@given(_series(-6, 10), st.sampled_from((4, 8, 16, 64)))
def test_artin_schreier_root_matches_the_fixed_point(a, working_prec):
    got = _outcome(lambda: as_root(as_defect(a), working_prec))
    want = _outcome(_ref_solve_artin_schreier, a, working_prec)
    assert got == want


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_artin_schreier_root_needs_every_power(tau):
    """rem = t needs the term t^(2^k) for every 2^k below working_prec."""
    fld = field(tau)
    for working_prec in (4, 8, 16, 64):
        want = _ref_solve_artin_schreier(s_monomial(fld, 1), working_prec)
        got = as_root(as_defect(s_monomial(fld, 1)), working_prec)
        assert got == want
        assert sorted(e for e, _ in got.terms()) == [
            2 ** k for k in range(working_prec.bit_length() - 1)]

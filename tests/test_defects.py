from __future__ import annotations

import random
from dataclasses import replace
from math import inf
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from btbranch import defects
from btbranch.defects import (KINDS, RAMIFIED_INSEP, RAMIFIED_SEP,
                              REDUCIBLE_INSEP, REDUCIBLE_SEP, UNRAMIFIED_SEP,
                              DefectResult, QuadPoly, as_argument, as_defect,
                              as_root, classify, quad_defect)
from btbranch.gf2 import field
from btbranch.series import (Series, UndeterminedAtPrecision, s_add, s_div,
                             s_mul, s_parse, s_random, s_square, s_truncate,
                             s_val, val_ge)
from references import (_ref_as_defect, _ref_solve_artin_schreier,
                        _ref_solve_quadratic)

F1 = field(1)
F2 = field(2)


def _series(tau):
    cfg = field(tau)
    return st.dictionaries(st.integers(-7, 7), st.integers(0, cfg.order - 1),
                           max_size=8).map(
        lambda d: Series(cfg, min(d, default=0),
                         tuple(d.get(e, 0)
                               for e in range(min(d, default=0),
                                              max(d, default=0) + 1))))


# -- the two defect maps --------------------------------------------
#
# The tables spell the ideal's valuation as the CLI's JSON does: None for
# (0), whose valuation is inf.

def _val(val):
    return inf if val is None else val


@pytest.mark.parametrize("text,val", [
    ("t^-1", -1),   # odd pole: nothing can absorb it
    ("t^-2", -1),   # even pole absorbed at the cost of a t^-1 term
    ("t^-3", -3),
    ("t^-4 + t^-1", None),   # exactly h^2 + h for h = t^-2 + t^-1
    ("t^-4 + t^-2 + t^-1", -1),
    ("1", 0),       # trace obstruction in F_2
    ("t", None),    # positive valuation always has a root
    ("0", None),
])
def test_artin_schreier_defect_fixed_values(text, val):
    assert as_defect(s_parse(F1, text)).ideal == _val(val)


def test_artin_schreier_defect_sees_the_residue_trace():
    # over F_4 the element 1 has trace zero, so the obstruction vanishes
    assert as_defect(s_parse(F2, "1")).ideal == inf
    assert as_defect(s_parse(F2, "g")).ideal == 0


@pytest.mark.parametrize("text,val", [
    ("t^-2", None),     # a perfect square
    ("1 + t", 1),
    ("t^3 + t^4", 3),
    ("t^-3", -3),
    ("0", None),
])
def test_quadratic_defect_fixed_values(text, val):
    assert quad_defect(s_parse(F1, text)).ideal == _val(val)


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_defect_images_match_the_two_laws(tau, data):
    a = data.draw(_series(tau))
    av = as_defect(a).ideal
    assert av == inf or av == 0 or (av < 0 and av % 2 == 1)
    qv = quad_defect(a).ideal
    assert qv == inf or qv % 2 == 1


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_defect_witnesses_reproduce_the_reduction(tau, data):
    a = data.draw(_series(tau))
    res = as_defect(a)
    h = res.witness
    assert s_add(s_add(a, s_mul(h, h)), h) == res.reduced
    if res.ideal != inf:
        assert s_val(res.reduced) == res.ideal
    q = quad_defect(a)
    assert s_add(a, s_mul(q.witness, q.witness)) == q.reduced


def test_defect_of_invisible_zero_needs_more_precision():
    with pytest.raises(UndeterminedAtPrecision):
        as_defect(Series(F1, 0, (), prec=0))


# -- classification -------------------------------------------------

@pytest.mark.parametrize("a,b,kind,t", [
    ("1", "0", REDUCIBLE_SEP, None),
    ("1", "1", UNRAMIFIED_SEP, None),
    ("t", "t", RAMIFIED_SEP, 1),
    ("t^2", "t", RAMIFIED_SEP, 2),
    ("0", "t^2", REDUCIBLE_INSEP, None),
    ("0", "t", RAMIFIED_INSEP, 0),
    ("0", "t^3", RAMIFIED_INSEP, 1),
    ("0", "t^-1", RAMIFIED_INSEP, -1),
])
def test_classification_fixed_cases(a, b, kind, t):
    m = classify(s_parse(F1, a), s_parse(F1, b))
    assert m.kind == kind
    assert m.t == t


def test_cells_partition_the_kinds():
    cells = {k: classify(s_parse(F1, a), s_parse(F1, b)).cell
             for k, (a, b) in {
                 REDUCIBLE_SEP: ("1", "0"), UNRAMIFIED_SEP: ("1", "1"),
                 RAMIFIED_SEP: ("t", "t"), REDUCIBLE_INSEP: ("0", "t^2"),
                 RAMIFIED_INSEP: ("0", "t")}.items()}
    assert cells == {REDUCIBLE_SEP: "A^s", UNRAMIFIED_SEP: "A^s",
                     RAMIFIED_SEP: "B^s", REDUCIBLE_INSEP: "A^i",
                     RAMIFIED_INSEP: "B^i"}
    assert set(KINDS) == set(cells)


def test_separable_and_reducible_flags():
    m = classify(s_parse(F1, "t"), s_parse(F1, "t"))
    assert m.separable and not m.reducible
    m = classify(s_parse(F1, "0"), s_parse(F1, "t^2"))
    assert not m.separable and m.reducible


def test_classification_is_deterministic_on_random_input():
    rng = random.Random(17)
    for _ in range(200):
        a = s_random(F1, rng, -2, 3)
        b = s_random(F1, rng, -3, 3)
        m = classify(a, b)
        assert m.kind in KINDS
        if m.kind == RAMIFIED_SEP:
            assert m.t >= 1
            assert m.defect.ideal == 1 - 2 * m.t
        if m.kind == RAMIFIED_INSEP:
            assert m.defect.ideal == 2 * m.t + 1


# -- the root of a defect, and the classified roots ------------------

def test_artin_schreier_solver_meets_its_precision():
    rng = random.Random(23)
    for _ in range(40):
        a = s_random(F1, rng, 1, 5)  # valuation >= 1 always has a root
        r = as_root(as_defect(a), working_prec=24)
        residual = s_add(s_add(s_mul(r, r), r), a)
        assert val_ge(residual, 24)


def test_artin_schreier_solver_refuses_the_obstructed_case():
    assert as_root(as_defect(s_parse(F1, "1"))) is None


@st.composite
def _artin_schreier_input(draw, tau):
    """h^2 + h + rem, with a pole part h and a tail rem reaching past
    t^65, or a plain random series; truncated or exact."""
    fld = field(tau)
    coeff = st.integers(0, fld.order - 1)
    if draw(st.booleans()):
        h = Series(fld, draw(st.integers(-6, 0)),
                   draw(st.lists(coeff, max_size=7)))
        rem = Series(fld, draw(st.integers(1, 40)),
                     draw(st.lists(coeff, max_size=80)))
        a = s_add(s_add(s_square(h), h), rem)
    else:
        a = Series(fld, draw(st.integers(-8, 8)),
                   draw(st.lists(coeff, max_size=20)))
    prec = draw(st.one_of(st.none(), st.integers(-2, 130)))
    return a if prec is None else s_truncate(a, prec)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndeterminedAtPrecision as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.sampled_from((3, 4, 64, 65)), st.data())
def test_artin_schreier_tail_matches_the_series_loop(tau, wp, data):
    # the loop is the reference fixed-point iteration r -> r^2 + rem
    a = data.draw(_artin_schreier_input(tau))
    got = _outcome(lambda: as_root(as_defect(a), wp))
    want = _outcome(_ref_solve_artin_schreier, a, wp)
    assert got == want
    if isinstance(got, Series):  # lead, lanes and precision alike
        assert (got.lead, got.bits, got.prec) == (want.lead, want.bits,
                                                  want.prec)


def test_quadratic_solver_returns_both_roots():
    c, d = s_parse(F1, "1"), s_parse(F1, "0")
    roots = classify(c, d).roots
    assert roots is not None
    r1, r2 = roots
    assert s_add(r1, r2) == c  # the roots sum to the linear coefficient
    for r in roots:
        residual = s_add(s_add(s_mul(r, r), s_mul(c, r)), d)
        assert residual.is_zero or val_ge(residual, 24)


def test_quadratic_solver_refuses_irreducible_input():
    for c, d in (("1", "1"), ("t", "t")):
        m = classify(s_parse(F1, c), s_parse(F1, d))
        assert m.roots is None


# -- the packed reduction against the Series-loop defect --------------

def _lanes(x):
    return None if x is None else (x.lead, x.bits, x.prec)


def _exact_outcome(fn, *args):
    """The result with every Series as (lead, bits, prec), or the
    exception's class and message."""
    try:
        out = fn(*args)
    except (ValueError, ZeroDivisionError, UndeterminedAtPrecision) as exc:
        return type(exc), str(exc)
    if isinstance(out, DefectResult):
        return out.ideal, _lanes(out.witness), _lanes(out.reduced)
    if isinstance(out, tuple):
        return tuple(map(_lanes, out))
    return _lanes(out)


@st.composite
def _deep_poles(draw, tau):
    """A series with poles down to t^-24, truncated anywhere from below
    its lead to past its last term, or exact."""
    fld = field(tau)
    coeffs = draw(st.lists(st.integers(0, fld.order - 1), max_size=40))
    lead = draw(st.integers(-24, 4))
    prec = draw(st.one_of(st.none(),
                          st.integers(lead - 2, lead + len(coeffs) + 2)))
    return Series(fld, lead, coeffs, prec)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_as_defect_on_lanes_matches_the_series_loop(tau, deep, data):
    a = data.draw(_deep_poles(tau) if deep else _artin_schreier_input(tau))
    assert _exact_outcome(as_defect, a) == _exact_outcome(_ref_as_defect, a)


@pytest.mark.parametrize("tau", [1, 2])
def test_as_defect_on_lanes_matches_on_every_short_pole(tau):
    # every 0/1 pattern of up to six terms from t^lead, lead -8..0, exact
    # or cut anywhere from below the lead to past the last term; this
    # takes in the steps whose new term lands exactly at the precision,
    # and at tau 2 the constant term 1, which has an Artin-Schreier root
    fld = field(tau)
    for lead in range(-8, 1):
        for pattern in range(1 << 6):
            coeffs = [pattern >> i & 1 for i in range(6)]
            for prec in (None, *range(lead - 1, lead + 8)):
                a = Series(fld, lead, coeffs, prec)
                assert (_exact_outcome(as_defect, a)
                        == _exact_outcome(_ref_as_defect, a)), a


_WORKING_PRECS = (*range(1, 10), 63, 64, 65, 100)

_roots = attrgetter("roots")


@st.composite
def _quadratic(draw, tau):
    """(a, b) of X^2 + aX + b: the sum and product of two random roots,
    or two random series; either may be truncated."""
    fld = field(tau)
    coeff = st.integers(0, fld.order - 1)

    def element(lo, hi):
        s = Series(fld, draw(st.integers(lo, hi)),
                   draw(st.lists(coeff, max_size=8)))
        prec = draw(st.one_of(st.none(), st.integers(-2, 70)))
        return s if prec is None else s_truncate(s, prec)
    if draw(st.booleans()):
        r1, r2 = element(-3, 4), element(-3, 4)
        return s_add(r1, r2), s_mul(r1, r2)
    return element(-4, 4), element(-6, 6)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3), st.sampled_from(_WORKING_PRECS), st.data())
def test_classified_roots_are_the_solved_roots(tau, wp, data):
    a, b = data.draw(_quadratic(tau))
    try:
        m = classify(a, b, wp)
    except UndeterminedAtPrecision:
        return
    assert (_exact_outcome(_roots, m)
            == _exact_outcome(_ref_solve_quadratic, a, b, wp))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.sampled_from(_WORKING_PRECS), st.data())
def test_the_defect_gives_back_the_series_classify_divided(tau, wp, data):
    a, b = data.draw(_quadratic(tau))
    try:
        m = classify(a, b, wp)
    except UndeterminedAtPrecision:
        return
    if m.separable:
        assert (_lanes(as_argument(m.defect))
                == _lanes(s_div(b, s_square(a), wp)))


# -- the classification memo ----------------------------------------

def _classification(m):
    """All a classification says, every Series as (lead, bits, prec)."""
    d = m.defect
    return (_lanes(m.a), _lanes(m.b), m.kind, m.t, d.ideal, _lanes(d.witness),
            _lanes(d.reduced), m.prec, _exact_outcome(_roots, m))


def _classified(a, b, wp):
    """classify's QuadPoly, or the message it refused with."""
    try:
        return classify(a, b, wp)
    except UndeterminedAtPrecision as exc:
        return str(exc)


def _entries():
    return defects._classify.cache_info().currsize


def _relabel(x, fld):
    """x's coefficients read over the field fld."""
    return Series(fld, x.lead, x.coeffs, x.prec)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.sampled_from((3, 8, 64)),
       st.sampled_from((3, 8, 64)), st.data())
def test_the_classification_memo_is_invisible(tau, wp, wp2, data):
    a, b = data.draw(_quadratic(tau))
    # the same lanes over another modulus at tau 3, over F_(2^(tau+1))
    # below it
    other = field(3, 0b1101) if tau == 3 else field(tau + 1)
    keys = [(a, b, wp), (_relabel(a, other), _relabel(b, other), wp)]
    if wp2 != wp:
        keys.append((a, b, wp2))
    defects._classify.cache_clear()
    kept = [_classified(*key) for key in keys]
    # each answer has an entry of its own, a refusal none
    entries = sum(isinstance(m, QuadPoly) for m in kept)
    assert _entries() == entries
    for key, m in zip(keys, kept):
        again = _classified(*key)
        assert again is m if isinstance(m, QuadPoly) else again == m
    assert _entries() == entries
    # bit for bit what a classification into an empty memo says
    for key, m in zip(keys, kept):
        defects._classify.cache_clear()
        fresh = _classified(*key)
        if isinstance(m, QuadPoly):
            assert fresh is not m
            assert _classification(fresh) == _classification(m)
        else:
            assert fresh == m and _entries() == 0


@pytest.mark.parametrize("a, b", [
    (Series(F1, 0, (), 4), s_parse(F1, "t")),  # a is 0 to precision 4 only
    (s_parse(F1, "0"), s_parse(F1, "t^2 (mod t^5)")),  # no odd term below t^5
    (s_parse(F1, "1"), Series(F1, 0, (), 0)),  # b/a^2 unknown mod t
])
def test_a_refusal_is_raised_on_every_call_and_never_kept(a, b):
    for _ in range(3):
        with pytest.raises(UndeterminedAtPrecision):
            classify(a, b)
        assert _entries() == 0


def test_a_patched_kernel_is_reached_once_the_memo_is_cleared(monkeypatch):
    a, b = s_parse(F1, "1 + t"), s_parse(F1, "t")
    assert _entries() == 0  # tests/conftest.py empties the memo
    warm = classify(a, b)
    calls = 0
    reduce = defects.as_defect

    def counting(x):
        nonlocal calls
        calls += 1
        return reduce(x)
    monkeypatch.setattr(defects, "as_defect", counting)
    assert classify(a, b) is warm and calls == 0  # the memo answers
    defects._classify.cache_clear()
    assert classify(a, b) == warm and calls == 1


def test_a_split_polynomial_sums_its_roots_once(monkeypatch):
    m = classify(s_parse(F1, "1"), s_parse(F1, "t"))  # X^2 + X + t splits
    roots = m.roots
    calls = 0
    root = defects.as_root

    def counting(*args):
        nonlocal calls
        calls += 1
        return root(*args)
    monkeypatch.setattr(defects, "as_root", counting)
    # equal coefficients parsed afresh meet the same polynomial
    same = classify(s_parse(F1, "1"), s_parse(F1, "t"))
    assert same is m and same.roots is roots and calls == 0
    # each precision is a polynomial of its own, with roots of its own
    at_8 = classify(m.a, m.b, 8)
    assert at_8.roots[0].prec != roots[0].prec and calls == 1
    # and the roots are not a field: a copy compares equal and sums them
    # again
    copy = replace(m)
    assert copy == m and hash(copy) == hash(m) and repr(copy) == repr(m)
    assert copy.roots == roots and calls == 2


@pytest.mark.parametrize("b", ["t", "t + t^2", "t^2"])
def test_a_classification_records_its_working_precision(b):
    # X^2 + X + t and X^2 + X + t + t^2 split, X^2 + t^2 is inseparable
    a = s_parse(F1, "0" if b == "t^2" else "1")
    at_8, at_64 = (classify(a, s_parse(F1, b), p) for p in (8, 64))
    assert (at_8.prec, at_64.prec) == (8, 64)
    assert at_8 != at_64
    for m in (at_8, at_64):
        # a separable root is summed to the precision m was classified
        # at; the inseparable double root is exact
        assert all(r.prec in (m.prec, None) for r in m.roots)
        assert m.separable == (m.roots[0].prec == m.prec)

from __future__ import annotations

import ast
import itertools
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import btbranch.defects as defects
import btbranch.existence as existence
from btbranch.existence import (DegenerateForm,
                                SearchBoxTooLarge, algebra_spec,
                                cyclic_presentation, decide, search_pair,
                                search_zero_divisor, splits, verify_witness,
                                _box_terms, _element, _norm_form)
from btbranch.gf2 import field
from btbranch.mat2 import Mat2, det, make_pair, sym_product, trace
from btbranch.series import (Series, UndeterminedAtPrecision, s_add, s_div,
                             s_mul, s_one, s_parse, s_random, s_render,
                             s_square, s_truncate, s_zero)
from references import (_form_at, _form_search_pair,
                        _form_search_zero_divisor, _monomials,
                        _ref_solve_quadratic, _small_elements,
                        _splits_reference)

F1 = field(1)


def _p(text):
    return s_parse(F1, text)


def _spec(lam, a1, b1, a2, b2):
    return algebra_spec(_p(lam), _p(a1), _p(b1), _p(a2), _p(b2), 64)


# the residue symbol


@pytest.mark.parametrize("a, b, expected", [
    ("1", "t", False),     # the classical nonsplit symbol
    ("0", "t", True),
    ("1", "1 + t", True),
    ("1", "1", True),
    ("t^-1", "t", True),
    ("1", "t^-1", False),
])
def test_symbol_splitting_fixed_values(a, b, expected):
    assert splits(_p(a), _p(b), 64) is expected


def test_symbol_needs_a_nonzero_second_argument():
    with pytest.raises(ValueError):
        splits(_p("1"), _p("0"), 64)


@st.composite
def _symbol_argument(draw, fld):
    coeffs = draw(st.lists(st.integers(0, fld.order - 1), max_size=12))
    x = Series(fld, draw(st.integers(-6, 6)), coeffs)
    prec = draw(st.one_of(st.none(), st.integers(-8, 20)))
    return x if prec is None else s_truncate(x, prec)


def _symbol_outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError, UndeterminedAtPrecision) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.sampled_from((3, 4, 64)), st.data())
def test_symbol_inverts_only_the_terms_it_reads(tau, wp, data):
    fld = field(tau)
    a, b = (data.draw(_symbol_argument(fld)) for _ in range(2))
    assert (_symbol_outcome(splits, a, b, wp)
            == _symbol_outcome(_splits_reference, a, b, wp))


# reduction to a cyclic presentation


def test_presentation_of_the_division_datum():
    spec = _spec("0", "1", "1", "0", "t")
    a_sym, b_sym = cyclic_presentation(spec)
    assert (s_render(a_sym), s_render(b_sym)) == ("1", "t")


def test_presentation_with_both_traces_zero_divides_at_the_working_prec():
    # both traces vanish, so the argument is b1 b2 / lambda^2: divided at
    # 8, the precision the datum was classified at, not at the default
    narrow, wide = (algebra_spec(_p("1 + t"), _p("0"), _p("t"), _p("0"),
                                 _p("1 + t^3"), prec) for prec in (8, 64))
    a_sym, b_sym = cyclic_presentation(narrow)
    assert a_sym.prec == 9 and s_render(b_sym) == "1 + t^3"
    wide_sym = cyclic_presentation(wide)[0]
    assert wide_sym.prec == 65 and s_truncate(wide_sym, 9) == a_sym


def test_presentation_refuses_a_vanishing_discriminant():
    with pytest.raises(DegenerateForm):
        cyclic_presentation(_spec("0", "0", "t", "0", "t^3"))


@pytest.mark.parametrize("datum, completions", [
    # Delta = lam^2 + lam: lam = 0 gives condition iii, lam = t^4 gives i
    (("0 (mod t^4)", "1", "0", "1", "0"), {"0": "iii", "t^4": "i"}),
    # Delta = lam^2 + b2 is 0 mod t^6
    (("0 (mod t^3)", "1", "0", "0", "0"), {"0": "iii", "t^3": "i"}),
])
def test_discriminant_zero_to_precision_only_is_refused(datum, completions):
    spec = _spec(*datum)
    assert spec.disc.looks_zero and not spec.disc.is_exact
    with pytest.raises(UndeterminedAtPrecision, match="precision only"):
        decide(spec, 64)
    with pytest.raises(UndeterminedAtPrecision, match="precision only"):
        cyclic_presentation(spec)
    for lam, condition in completions.items():
        verdict = decide(_spec(lam, *datum[1:]), 64)
        assert verdict.matched_condition == condition


def test_commutative_witness_carries_the_precision_of_its_data():
    # b2 = t^3 + g*t^4 known mod t^5: the split of b2 gives q2 = c + s q1,
    # known only as far as b2 is, and agreeing there with the witness of
    # the exact completion
    fld = field(2)

    def witness(b2):
        spec = algebra_spec(*(s_parse(fld, x) for x in ("0", "0", "t", "0")),
                            s_parse(fld, b2), 64)
        verdict = decide(spec, 64)
        assert verdict.matched_condition == "v"
        return verdict.witness[1]
    q2 = witness("t^3 + g*t^4 (mod t^5)")
    exact = witness("t^3 + g*t^4")
    for e in "abcd":
        got, want = getattr(q2, e), getattr(exact, e)
        assert got.prec is not None and want.prec is None
        assert s_truncate(want, got.prec) == got


# the five realisability conditions


def test_division_datum_is_not_realisable():
    verdict = decide(_spec("0", "1", "1", "0", "t"), 64)
    assert verdict.exists is False
    assert verdict.matched_condition == "none"
    assert verdict.witness is None


def _check_witness(spec, verdict):
    assert verdict.witness is not None
    q1, q2 = verdict.witness
    assert verify_witness(spec, q1, q2)
    make_pair(q1, q2, 64)  # must not raise


def test_reducible_factor_realises_the_datum():
    spec = _spec("0", "1", "0", "0", "t")
    verdict = decide(spec, 64)
    assert verdict.exists and verdict.matched_condition == "i"
    _check_witness(spec, verdict)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.one_of(st.none(),
                                                   st.integers(20, 70)),
       st.integers(0, 2 ** 32))
def test_a_square_factor_always_has_a_witness(tau, swap, lam_prec, seed):
    # m = (X + alpha)^2 gives Delta = (lambda + alpha a)^2, a the other
    # trace, so Delta != 0 leaves the nilpotent witness a nonzero corner;
    # lambda is known deep enough for verify_witness to decide
    fld = field(tau)
    rng = random.Random(seed)
    alpha, lam, a, b = (s_random(fld, rng, -1, 2) for _ in range(4))
    if lam_prec is not None:
        lam = s_truncate(lam, lam_prec)
    square = (s_zero(fld), s_square(alpha))
    coeffs = (a, b, *square) if swap else (*square, a, b)
    spec = algebra_spec(lam, *coeffs, 64)
    r = s_add(lam, s_mul(alpha, a))
    assert _lanes(s_square(r)) == _lanes(spec.disc)
    try:
        verdict = decide(spec)
    except UndeterminedAtPrecision:  # Delta is 0 to precision only
        assume(False)
    if verdict.matched_condition == "i":
        assert verdict.witness is not None
        assert verify_witness(spec, *verdict.witness)


def test_split_symbol_realises_without_an_explicit_witness():
    verdict = decide(_spec("t", "0", "t", "0", "t^3"), 64)
    assert verdict.exists and verdict.matched_condition == "ii"
    assert verdict.witness is None


def test_degenerate_datum_with_a_separable_reducible_factor():
    spec = _spec("t", "1", "0", "1", "t + t^2")
    verdict = decide(spec, 64)
    assert verdict.exists and verdict.matched_condition == "iii"
    _check_witness(spec, verdict)


def test_degenerate_datum_reducible_on_the_second_slot():
    spec = _spec("t", "0", "t^2", "1", "0")
    verdict = decide(spec, 64)
    assert verdict.exists and verdict.matched_condition == "iv"
    _check_witness(spec, verdict)


def test_doubly_traceless_datum_is_commutative():
    spec = _spec("0", "0", "t", "0", "t^2 + t^3")
    verdict = decide(spec, 64)
    assert verdict.exists and verdict.matched_condition == "v"
    _check_witness(spec, verdict)


def test_doubly_traceless_square_pair_also_has_a_witness():
    spec = _spec("0", "0", "t^2", "0", "t^4")
    verdict = decide(spec, 64)
    assert verdict.exists and verdict.matched_condition == "v"
    _check_witness(spec, verdict)


def test_commutative_case_documents_a_missing_witness():
    # X^2 + t and X^2 + t^3: the only commuting candidate is q2 = t q1, a
    # multiple of q1, so no linearly independent pair realises the datum
    verdict = decide(_spec("0", "0", "t", "0", "t^3"), 64)
    assert not verdict.exists and verdict.matched_condition == "none"
    assert verdict.witness is None


# (b1, b2) = (t, t^3) is the datum of the test above
@pytest.mark.parametrize("b1, b2", [("1", "t"), ("0", "0"), ("t", "t"),
                                    ("1", "t^2 + t^3")])
def test_doubly_traceless_datum_without_an_independent_pair_is_refused(b1,
                                                                       b2):
    # lambda = a1 = a2 = 0 makes the pair commute: q2 = c + s q1 with
    # b2 = c^2 + s^2 b1, and none of these data admits such a c != 0
    verdict = decide(_spec("0", "0", b1, "0", b2), 64)
    assert (verdict.exists, verdict.matched_condition) == (False, "none")
    assert verdict.witness is None


def test_missing_commutative_witness_on_truncated_data_is_undetermined():
    # b2 = t^3 mod t^5 gives c = xi2 + (eta2/eta1) xi1 = 0 mod t^3 only;
    # classify has already settled which b_i are squares
    with pytest.raises(UndeterminedAtPrecision, match="c is 0 mod t"):
        decide(_spec("0", "0", "t", "0", "t^3 (mod t^5)"), 64)
    verdict = decide(_spec("0", "0", "t", "0", "t^3 + t^4 (mod t^5)"), 64)
    assert verdict.exists and verdict.matched_condition == "v"


@pytest.mark.parametrize("prec, verified", [(4, None), (6, None), (8, True),
                                            (64, True)])
def test_truncated_witness_is_undetermined_below_the_floor(prec, verified):
    # X^2 + X + t has the Artin-Schreier root t + t^2 + t^4 + ..., which
    # the witness carries truncated at the working precision
    spec = algebra_spec(*(_p(x) for x in ("0", "1", "t", "0", "t")), prec)
    q1, q2 = decide(spec, prec).witness
    if verified is None:
        with pytest.raises(UndeterminedAtPrecision):
            verify_witness(spec, q1, q2)
    else:
        assert verify_witness(spec, q1, q2) is verified
    # swapped generators break an identity visibly, at any precision
    assert verify_witness(spec, q2, q1) is False


@pytest.mark.parametrize("datum", [
    ("0", "1", "t", "0", "t"),  # condition i, a root summed to the precision
    ("0", "0", "t + t^3", "0", "t^3 + t^4"),  # condition v, s divided at it
    ("0", "1", "1", "0", "t"),  # the division datum: the symbol decides
])
def test_decide_reads_the_precision_off_the_datum(datum):
    spec = algebra_spec(*map(_p, datum), 64)
    with pytest.raises(ValueError, match="classified at precision 64"):
        decide(spec, 32)
    assert _decided(spec, None) == _decided(spec, 64)
    narrow = algebra_spec(*map(_p, datum), 8)
    assert narrow.prec == 8 and _decided(narrow, None) == _decided(narrow, 8)
    if _decided(spec, None)[2] is not None:
        assert _decided(narrow, None) != _decided(spec, None)


def test_unramified_irreducible_pair_is_rejected():
    verdict = decide(_spec("1", "1", "1", "1", "1"), 64)
    assert verdict.exists is False


# the structure constants behave like an algebra


def _mul_table(spec):
    """Structure constants: coordinates of B_i B_j in (1, Q1, Q2, Q1Q2)."""
    fld = spec.lam.field
    z, o = s_zero(fld), s_one(fld)
    a1, b1 = spec.m1.a, spec.m1.b
    a2, b2 = spec.m2.a, spec.m2.b
    lam = spec.lam
    lam_aa = s_add(lam, s_mul(a1, a2))
    tab = {}
    tab[0, 0] = (o, z, z, z)
    for j, unit in ((1, (z, o, z, z)), (2, (z, z, o, z)), (3, (z, z, z, o))):
        tab[0, j] = tab[j, 0] = unit
    tab[1, 1] = (b1, a1, z, z)
    tab[2, 2] = (b2, z, a2, z)
    tab[1, 2] = (z, z, z, o)
    tab[2, 1] = (lam, a2, a1, o)
    tab[1, 3] = (z, z, b1, a1)
    tab[3, 1] = (s_mul(a2, b1), lam_aa, b1, z)
    tab[2, 3] = (s_mul(a1, b2), b2, lam_aa, z)
    tab[3, 2] = (z, b2, z, a2)
    tab[3, 3] = (s_mul(b1, b2), z, z, lam_aa)
    return tab


def _nrd(tab, x):
    """Reduced norm of x = sum x_i B_i, the scalar coordinate of x (x + trd x).

    x^2 = trd(x) x + nrd(x) in characteristic 2.  trd(B_i) is the B_i
    coordinate of B_i^2 for i > 0, and trd(1) = 2 = 0.
    """
    conj0 = x[0]  # the scalar coordinate of x + trd(x)
    for i in (1, 2, 3):
        if not x[i].is_zero:
            conj0 = s_add(conj0, s_mul(x[i], tab[i, i][i]))
    conj = (conj0,) + tuple(x[1:])
    out = s_zero(x[0].field)
    for i, xi in enumerate(x):
        for j, cj in enumerate(conj):
            c = tab[i, j][0]
            if not (xi.is_zero or cj.is_zero or c.is_zero):
                out = s_add(out, s_mul(s_mul(xi, cj), c))
    return out


def _polar_norm_form(spec):
    """The norm form by polarisation: n_i = nrd(B_i), p_ij = nrd(B_i + B_j)
    + n_i + n_j, ten _nrd calls on the structure constants."""
    tab = _mul_table(spec)
    fld = spec.lam.field
    z, o = s_zero(fld), s_one(fld)

    def vec(*ones):
        return tuple(o if i in ones else z for i in range(4))
    n = [_nrd(tab, vec(i)) for i in range(4)]
    p = {(i, j): s_add(s_add(_nrd(tab, vec(i, j)), n[i]), n[j])
         for i, j in itertools.combinations(range(4), 2)}
    return n, p


# the unit-scaled rows built term by term from series: the reference
# for _unit_rows


def _terms(a, lo):
    """The terms c t^e of a, as (log c, the lane offset (e - lo) tau)."""
    fld = a.field
    log = fld.tables[0]
    return [(log[c], (e - lo) * fld.tau) for e, c in a.terms()]


def _scalings(coeff, low):
    """exp[k] coeff packed on low, for k over two periods of the log
    table: exp[k] c is exp[k + log c], one lookup per term c t^e."""
    exp = coeff.field.tables[1]
    terms = _terms(coeff, low)
    row = []
    for k in range(coeff.field.order - 1):
        x = 0
        for kc, h in terms:
            x ^= exp[k + kc] << h
        row.append(x)
    return row + row


def _form(a, b, c, u, v):
    """a u^2 + b u v + c v^2, on series, leaving out zero coordinates."""
    return _form_at(a, b, c, _monomials(u, v))


def _alg_mul(tab, x, y):
    """Product of two elements given by coordinates in (1, Q1, Q2, Q1Q2)."""
    fld = x[0].field
    out = [s_zero(fld)] * 4
    for i, xi in enumerate(x):
        if xi.is_zero:
            continue
        for j, yj in enumerate(y):
            if yj.is_zero:
                continue
            coeff = s_mul(xi, yj)
            for k, c in enumerate(tab[i, j]):
                if not c.is_zero:
                    out[k] = s_add(out[k], s_mul(coeff, c))
    return tuple(out)


def test_multiplication_table_is_associative():
    rng = random.Random(3)
    for spec in (_spec("t", "0", "t", "0", "t^3"),
                 _spec("1", "1", "1", "0", "t")):
        tab = _mul_table(spec)
        for _ in range(8):
            u, v, w = (tuple(s_random(F1, rng, 0, 3) for _ in range(4))
                       for _ in range(3))
            left = _alg_mul(tab, _alg_mul(tab, u, v), w)
            right = _alg_mul(tab, u, _alg_mul(tab, v, w))
            assert left == right


# the reduced norm against the forms it replaced: the determinant of
# left multiplication and the hand-expanded pair form


def _det4(rows):
    """Cofactor determinant of a 4x4 series matrix."""

    def det2(m):
        return s_add(s_mul(m[0][0], m[1][1]), s_mul(m[0][1], m[1][0]))

    def det3(m):
        acc = None
        for j in range(3):
            minor = [[m[1][k] for k in range(3) if k != j],
                     [m[2][k] for k in range(3) if k != j]]
            term = s_mul(m[0][j], det2(minor))
            acc = term if acc is None else s_add(acc, term)
        return acc

    acc = None
    for j in range(4):
        minor = [[rows[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        term = s_mul(rows[0][j], det3(minor))
        acc = term if acc is None else s_add(acc, term)
    return acc


def _det_left_mult(tab, x):
    fld = x[0].field
    basis = [tuple(s_one(fld) if i == j else s_zero(fld) for i in range(4))
             for j in range(4)]
    cols = [_alg_mul(tab, tuple(x), e) for e in basis]
    return _det4([[cols[j][i] for j in range(4)] for i in range(4)])


def _pair_form_numerator(spec, x, y, z, w):
    """y w C(x,y,z,w), expanded by hand."""
    m1, m2 = spec.m1, spec.m2
    return s_add(
        s_add(s_add(s_mul(x, x), s_mul(s_mul(m1.a, x), y)),
              s_mul(s_mul(m1.b, y), y)),
        s_add(s_add(s_add(s_mul(z, z), s_mul(s_mul(m2.a, z), w)),
                    s_mul(s_mul(m2.b, w), w)),
              s_add(s_mul(s_mul(m1.a, z), y), s_mul(s_mul(m2.a, x), w))))


def _coefficients(draw, taus):
    """lambda, a1, b1, a2, b2 in one of four shapes: two with Delta = 0,
    and one read off a matrix pair, which the searches often hit.  An
    entry of taus is a tau or a pair (tau, modulus)."""
    tau = draw(st.sampled_from(taus))
    fld = field(*tau) if isinstance(tau, tuple) else field(tau)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    lam, a1, b1, a2, b2 = (s_random(fld, rng, -1, 2) for _ in range(5))
    shape = draw(st.sampled_from(("generic", "traceless", "unit trace",
                                  "matrix pair")))
    if shape == "traceless":
        lam = a1 = a2 = s_zero(fld)
    elif shape == "unit trace":
        a1 = s_one(fld)
        b2 = s_add(s_add(s_mul(lam, lam), s_mul(a2, lam)),
                   s_mul(s_mul(a2, a2), b1))
    elif shape == "matrix pair":
        q1, q2 = (Mat2(*(s_random(fld, rng, 0, 1) for _ in range(4)))
                  for _ in range(2))
        lam, a1, b1 = sym_product(q1, q2), trace(q1), det(q1)
        a2, b2 = trace(q2), det(q2)
    return (lam, a1, b1, a2, b2), shape, rng


@st.composite
def _datum(draw, taus=(1, 2)):
    """A random exact datum, over F_2 or F_4 unless taus says otherwise."""
    coeffs, shape, rng = _coefficients(draw, taus)
    spec = algebra_spec(*coeffs, 64)
    if shape in ("traceless", "unit trace"):
        assert spec.disc.is_zero
    return spec, rng


@st.composite
def _truncated_datum(draw, taus=(1, 2, 3)):
    """A datum with one or two coefficients known only mod t^1..t^5."""
    coeffs, _, rng = _coefficients(draw, taus)
    coeffs = list(coeffs)
    for i in draw(st.sets(st.integers(0, 4), min_size=1, max_size=2)):
        coeffs[i] = s_truncate(coeffs[i], draw(st.integers(1, 5)))
    try:
        spec = algebra_spec(*coeffs, 64)
    except UndeterminedAtPrecision:  # a trace that is 0 to precision only
        assume(False)
    return spec, rng


@settings(max_examples=150, deadline=None)
@given(_datum())
def test_reduced_norm_is_the_scalar_of_x_times_its_conjugate(datum):
    spec, rng = datum
    fld = spec.lam.field
    tab = _mul_table(spec)
    x = tuple(s_random(fld, rng, -1, 1) for _ in range(4))
    trd = s_zero(fld)
    for i in (1, 2, 3):
        trd = s_add(trd, s_mul(x[i], tab[i, i][i]))
    prod = _alg_mul(tab, x, (s_add(x[0], trd),) + x[1:])
    assert all(c.is_zero for c in prod[1:])
    nrd = _nrd(tab, x)
    assert prod[0] == nrd
    assert s_mul(nrd, nrd) == _det_left_mult(tab, x)
    # the pair form is the norm of (x + z) + y Q1 + w Q2, less lambda y w
    y, z, w = (s_random(fld, rng, -1, 1) for _ in range(3))
    lam_yw = s_mul(s_mul(spec.lam, y), w)
    assert (s_add(_pair_form_numerator(spec, x[0], y, z, w), lam_yw)
            == _nrd(tab, (s_add(x[0], z), y, w, s_zero(fld))))


def _agree(got, want):
    """Equal when exact; otherwise equal below the lower precision."""
    assert got.is_exact == want.is_exact
    assert got.is_zero == want.is_zero
    if got.is_exact:
        assert got == want
    else:
        floor = min(got.prec, want.prec)
        assert s_truncate(got, floor) == s_truncate(want, floor)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_datum((1, 2, 3)), _truncated_datum()))
def test_closed_norm_form_is_the_polarised_reduced_norm(datum):
    # the monomials of _norm_form against ten _nrd calls on the structure
    # constants: equal on exact data, and on truncated data equal below
    # the lower precision, the closed form never the less precise
    spec, _ = datum
    n, p = _norm_form(spec)
    ref_n, ref_p = _polar_norm_form(spec)
    assert list(p) == list(ref_p)
    for got, want in zip(n + list(p.values()), ref_n + list(ref_p.values())):
        if want.is_exact:
            assert got == want
        else:
            assert got.is_exact or got.prec >= want.prec
            assert s_truncate(got, want.prec) == s_truncate(want, want.prec)
    if all(c.is_exact for c in (spec.lam, spec.m1.a, spec.m1.b, spec.m2.a,
                                spec.m2.b)):
        # the Pfaffian of the form is the Delta that decide reads
        pfaffian = s_add(s_add(s_mul(p[0, 1], p[2, 3]),
                               s_mul(p[0, 2], p[1, 3])),
                         s_mul(p[0, 3], p[1, 2]))
        assert pfaffian == spec.disc


@settings(max_examples=150, deadline=None)
@given(st.one_of(_datum(), _truncated_datum()))
def test_norm_form_reproduces_the_reduced_norm(datum):
    spec, rng = datum
    fld = spec.lam.field
    zero, one = s_zero(fld), s_one(fld)
    tab = _mul_table(spec)
    n, p = _norm_form(spec)

    def coordinate(nonzero=False):
        if not nonzero and rng.random() < 0.25:
            return zero
        return s_random(fld, rng, -1, 1, nonzero=True)
    # the two-coordinate vectors of the zero-divisor search
    for i, j in p:
        u, v = coordinate(), coordinate()
        x = [zero] * 4
        x[i], x[j] = u, v
        _agree(_form(n[i], p[i, j], n[j], u, v), _nrd(tab, x))
    # the (s, y, w, 0) vectors of the pair search, as it evaluates them
    s, y, w = coordinate(), coordinate(True), coordinate(True)
    k = _form(n[1], p[1, 2], n[2], y, w)
    c = s_add(s_mul(p[0, 1], y), s_mul(p[0, 2], w))
    value = k if s.is_zero else _form(n[0], c, k, s, one)
    _agree(value, _nrd(tab, (s, y, w, zero)))


# small boxes (lo, hi, max_terms), and wider ones below
_BOXES = {1: ((-1, 1, 1), (0, 1, 1), (0, 1, 2)),
          2: ((0, 0, 1), (1, 1, 1), (-1, -1, 1)),
          3: ((0, 0, 1), (0, 1, 1))}


@settings(max_examples=60, deadline=None)
@given(_datum(), st.data())
def test_searches_return_the_reference_first_hit(datum, data):
    spec, _ = datum
    box = data.draw(st.sampled_from(_BOXES[spec.lam.field.tau]))
    assert (search_zero_divisor(spec, *box)
            == _form_search_zero_divisor(spec, *box))
    assert search_pair(spec, *box) == _form_search_pair(spec, *box)


@pytest.mark.parametrize("datum, box", [
    (("0", "0", "1", "1", "t"), (0, 1, 1)),
    (("0", "0", "1", "t", "t^3"), (-1, 1, 1)),
])
def test_pair_search_returns_the_first_of_two_hitting_sums(datum, box):
    # on the first (y, w) = (t, w) that hits, x + z = t and x + z = 1 + t
    # both do; the double loop over (x, z) meets (0, t) first
    spec = _spec(*datum)
    found = search_pair(spec, *box)
    assert found == _form_search_pair(spec, *box)
    assert [s_render(c) for c in found[::2]] == ["0", "t"]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(tau, box) for tau, boxes in _BOXES.items()
                        for box in boxes]), st.data())
def test_searches_on_truncated_data_return_the_reference_first_hit(case,
                                                                   data):
    # a norm that is zero only to the precision of the data is no hit,
    # so both searches must keep exactly the reference's exactness
    tau, box = case
    spec, _ = data.draw(_truncated_datum((tau,)))
    assert (search_zero_divisor(spec, *box)
            == _form_search_zero_divisor(spec, *box))
    assert search_pair(spec, *box) == _form_search_pair(spec, *box)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(tau, box) for tau, boxes in _BOXES.items()
                        for box in boxes if (tau, box) != (3, (0, 1, 1))]),
       st.integers(0, 4),
       st.integers(1, 5), st.data())
def test_one_truncated_coefficient_keeps_the_reference_first_hit(
        case, which, prec, data):
    # exactly one of lambda, a1, b1, a2, b2 known mod t^prec: each term
    # that carries it must keep every plane and sum it remains in from
    # hitting, as in the reference.  The tau-3 box 0..1 costs about 0.2 s
    # a datum; the series-loop test below covers it
    tau, box = case
    coeffs, _, _ = _coefficients(data.draw, (tau,))
    coeffs = list(coeffs)
    coeffs[which] = s_truncate(coeffs[which], prec)
    try:
        spec = algebra_spec(*coeffs, 64)
    except UndeterminedAtPrecision:  # a trace that is 0 to precision only
        assume(False)
    assert (search_zero_divisor(spec, *box)
            == _form_search_zero_divisor(spec, *box))
    assert search_pair(spec, *box) == _form_search_pair(spec, *box)


def test_zero_divisor_search_leaves_out_terms_with_a_zero_coordinate():
    # b2 = 0 exactly, so n_2 v^2 = 0 on the plane (1, Q2) with u = 0;
    # the inexact p_02 = a2 multiplies u v = 0 and is left out.  Keeping
    # it would skip every plane up to (Q2, Q1Q2) and return (0, 0, 0, 1)
    spec = _spec("1 (mod t)", "1", "1", "t (mod t^2)", "0")
    found = search_zero_divisor(spec, 0, 0, 1)
    assert [s_render(c) for c in found] == ["0", "0", "1", "0"]
    assert found == _form_search_zero_divisor(spec, 0, 0, 1)


def test_pair_search_with_an_inexact_trace_hits_only_at_a_zero_sum():
    # with a1 known mod t^3, c = a1 y + a2 w is inexact: the exact
    # datum's first hit, at x + z = t^-1 + 1, no longer counts, and the
    # first (y, w) with k exactly 0 hits at x + z = 0 instead
    for a1, hit in (("t^2", ["t^-1", "t^-1", "1", "1"]),
                    ("t^2 (mod t^3)", ["0", "t", "0", "t^-1"])):
        spec = _spec("t^-1", a1, "0", "0", "t")
        found = search_pair(spec, -1, 1, 1)
        assert [s_render(c) for c in found] == hit
        assert found == _form_search_pair(spec, -1, 1, 1)


# boxes on which the series loops of the searches stay cheap
_WIDE_BOXES = {1: ((-2, 2, 1), (-1, 2, 2), (1, 3, 2)),
               2: ((-1, 1, 1), (0, 1, 2), (2, 3, 1)),
               3: ((0, 1, 1), (0, 0, 2), (1, 1, 1))}


@settings(max_examples=80, deadline=None)
@given(st.one_of(_datum((1, 2, 3)), _truncated_datum()), st.data())
def test_searches_return_the_series_loop_first_hit(datum, data):
    # the packed-int searches against the same loops on series, on exact
    # and truncated data and on wider boxes
    spec, _ = datum
    box = data.draw(st.sampled_from(_WIDE_BOXES[spec.lam.field.tau]))
    assert (search_zero_divisor(spec, *box)
            == _form_search_zero_divisor(spec, *box))
    assert search_pair(spec, *box) == _form_search_pair(spec, *box)


# F_16 modulo x^4 + x^3 + x^2 + x + 1, where g has order 5: the rows must
# be scaled by the table's primitive element, not by g
_G_OF_ORDER_5 = (4, 0b11111)


@settings(max_examples=15, deadline=None)
@given(st.one_of(_datum((_G_OF_ORDER_5,)), _truncated_datum((_G_OF_ORDER_5,))),
       st.sampled_from(((0, 0, 1), (1, 1, 1), (-1, -1, 2))))
def test_searches_where_g_is_not_primitive_return_the_series_loop_first_hit(
        datum, box):
    spec, _ = datum
    assert (search_zero_divisor(spec, *box)
            == _form_search_zero_divisor(spec, *box))
    assert search_pair(spec, *box) == _form_search_pair(spec, *box)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_datum((1, 2, 3, _G_OF_ORDER_5)),
                 _truncated_datum((1, 2, 3, _G_OF_ORDER_5))))
def test_the_unit_rows_are_the_per_term_scalings(datum):
    # each of the ten rows against exp[k + log c] term by term
    spec, _ = datum
    tables = existence._search_tables(spec)
    n, p = _norm_form(spec)
    assert tables.n == n and tables.p == p
    assert tables.low == min(c.lead for c in (*n, *p.values()) if c.bits)
    assert tables.n_rows == [_scalings(c, tables.low) for c in n]
    assert tables.p_rows == {ij: _scalings(c, tables.low)
                             for ij, c in p.items()}


@pytest.mark.parametrize("tau, modulus, box", [
    (1, None, (-2, 2, 1)), (1, None, (-1, 2, 3)), (2, None, (-1, 1, 2)),
    (3, None, (0, 1, 2)), (4, 0b11111, (0, 1, 1)), (2, None, (3, 2, 1)),
    (2, None, (0, 1, 0)), (1, None, (0, 1, 5))])
def test_box_terms_are_the_small_elements_in_order(tau, modulus, box):
    fld = field(tau, modulus)
    lo = box[0]
    pool = list(_small_elements(fld, *box))
    got = _box_terms(fld, *box)
    assert got == tuple(tuple(_terms(u, lo)) for u in pool)
    assert [_element(fld, lo, terms) for terms in got] == pool
    # kept per (field, box, max_terms), so one box is built once
    assert _box_terms(field(tau, modulus), *box) is got


def test_both_searches_build_the_norm_form_once(monkeypatch):
    built = []
    norm_form = existence._norm_form
    monkeypatch.setattr(existence, "_norm_form",
                        lambda spec: built.append(spec) or norm_form(spec))
    spec = _spec("t", "1", "0", "1", "t + t^2")
    for lo, hi in ((0, 1), (1, 2), (-2, -1)):
        assert search_zero_divisor(spec, lo, hi, 1) is not None
        assert search_pair(spec, lo, hi, 1) is not None
    assert built == [spec]


def test_pair_search_tests_each_sum_once(monkeypatch):
    # the double loop over (x, z) made |pool|^2 |nonzero|^2 = 8,100 norm
    # evaluations on this box; one per (y, w) and distinct nonzero x + z
    # makes 2,916, and the sum 0 is k = 0
    fld = field(2)
    spec = algebra_spec(*(s_parse(fld, x) for x in ("0", "1", "1", "0", "t")),
                        64)
    first_root = existence._first_root
    candidates = 0

    def counting(row_y, row_w, k):
        nonlocal candidates
        candidates += len(row_y)
        return first_root(row_y, row_w, k)
    monkeypatch.setattr(existence, "_first_root", counting)
    assert search_pair(spec, -1, 1, 1) is None
    pool = list(_small_elements(fld, -1, 1, 1))
    sums = {s_add(x, z) for x, z in itertools.product(pool, repeat=2)}
    assert 0 < candidates <= len(sums) * (len(pool) - 1) ** 2


#: the code of the searches: every function they call in existence.py,
#: the tables they read included
_SEARCH_CODE = ("search_zero_divisor", "search_pair",
                "_search_tables", "_norm_form",
                "_unit_rows", "_packed", "_box_size", "_refuse_over_limit",
                "_box_terms", "_lanes", "_element", "_cross", "_first_root")


def _module_functions(module):
    """The functions of a module and the methods of its classes, the
    latter named Class.method."""
    functions = {}
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update((f"{node.name}.{item.name}", item)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return functions


def _names_used(node):
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_the_search_code_list_is_complete():
    # every function of the module that the search code names is in it
    functions = _module_functions(ast.parse(
        Path(existence.__file__).read_text()))
    for name in _SEARCH_CODE:
        used = _names_used(functions[name])
        assert used & set(functions) <= set(_SEARCH_CODE), name


def test_searches_share_nothing_with_the_symbol():
    # a search that read a root off a classification, reduced a defect or
    # called the symbol would no longer be independent evidence for the
    # verdict of decide
    module = ast.parse(Path(existence.__file__).read_text())
    banned = {"decide", "splits", "cyclic_presentation", "_disc",
              "checked_disc", "s_split", "s_sqrt", "s_square", "defects",
              "as_root", "roots", "as_argument", "as_defect"}
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "defects":
            banned.update(alias.asname or alias.name for alias in node.names)
    assert {"roots", "as_root", "as_defect"} <= banned
    functions = _module_functions(module)
    for name in _SEARCH_CODE:
        used = _names_used(functions[name])
        assert not used & banned, (name, used & banned)


def test_the_datum_discriminant_is_kept_and_invisible():
    spec = _spec("t", "1", "t", "t", "1 + t")
    fresh = algebra_spec(spec.lam, spec.m1.a, spec.m1.b, spec.m2.a,
                         spec.m2.b, 64)
    assert spec.disc is spec.disc and spec.disc == fresh.disc
    tables = existence._search_tables(spec)
    assert existence._search_tables(spec) is tables
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)


def test_searches_never_read_the_matrix_memo():
    # the classification kept on a Mat2 is the predictor's; a search
    # that read it would lean on the classifier it is evidence against.
    # The one instance memo the search code touches is its own tables,
    # kept on the datum under the key "_search_tables"
    functions = _module_functions(ast.parse(
        Path(existence.__file__).read_text()))
    for name in _SEARCH_CODE:
        used = _names_used(functions[name])
        assert not used & {"min_poly", "_trace_det", "_min_poly"}, name
        if "__dict__" in used:
            assert name == "_search_tables"
            keys = {node.value for node in ast.walk(functions[name])
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("_")}
            assert keys == {"_search_tables"}, keys


# brute force searches


def test_zero_divisor_search_hits_a_reducible_instance():
    spec = _spec("0", "1", "0", "0", "t")
    found = search_zero_divisor(spec, -2, 2, 1)
    assert found is not None
    assert any(not c.is_zero for c in found)


def test_pair_search_recovers_the_pairing_value():
    spec = _spec("t", "0", "t", "0", "t^3")
    x, y, z, w = search_pair(spec, -1, 1, 1)
    assert (_pair_form_numerator(spec, x, y, z, w)
            == s_mul(s_mul(y, w), spec.lam))


def test_searches_come_up_empty_on_the_division_instance():
    spec = _spec("0", "1", "1", "0", "t")
    assert search_zero_divisor(spec, -2, 2, 1) is None
    assert search_pair(spec, -1, 1, 1) is None


def _in_box(c, lo, hi):
    return c.is_zero or lo <= c.lead <= c.lead + len(c.coeffs) - 1 <= hi


def test_search_box_is_respected():
    # the pair search hits (0, t, t, 1) on the box 0,1
    spec = _spec("t", "0", "t", "0", "t^3")
    assert [s_render(c) for c in search_pair(spec, 0, 1, 1)] == [
        "0", "t", "t", "1"]
    # both searches hit this datum on each box, inside it
    spec = _spec("t", "1", "0", "1", "t + t^2")
    for lo, hi in ((0, 1), (1, 2), (-2, -1)):
        for search in (search_zero_divisor, search_pair):
            hit = search(spec, lo, hi, 1)
            assert hit is not None
            assert all(_in_box(c, lo, hi) for c in hit), (lo, hi, hit)


def test_a_search_has_no_default_box():
    spec = _spec("t", "1", "0", "1", "t + t^2")
    for search in (search_zero_divisor, search_pair):
        with pytest.raises(TypeError):
            search(spec)


class _Reached(Exception):
    """Raised in place of building a search's box."""


def _stop_before_building(monkeypatch):
    def refuse(*args):
        raise _Reached
    monkeypatch.setattr(existence, "_box_terms", refuse)
    monkeypatch.setattr(existence, "_search_tables", refuse)


@pytest.mark.parametrize("search, tau, box", [
    (search_pair, 8, (-1, 1, 1)),           # 765^2 x 195,841 candidates
    (search_pair, 5, (-1, 1, 1)),           # 93^2 x 2,977
    (search_zero_divisor, 8, (-2, 2, 1)),   # 6 x 1,276^2
    (search_zero_divisor, 1, (-10 ** 6, 10 ** 6, 1)),
    (search_pair, 1, (-10 ** 6, 10 ** 6, 1)),
    (search_zero_divisor, 1, (-5, 5, 10 ** 9)),
    (search_pair, 1, (-5, 5, 10 ** 9)),
])
def test_a_box_over_the_limit_is_refused_before_anything_is_built(
        monkeypatch, search, tau, box):
    _stop_before_building(monkeypatch)
    fld = field(tau)
    spec = algebra_spec(*(s_parse(fld, x) for x in ("t", "1", "t", "t", "1")),
                        64)
    start = time.perf_counter()
    with pytest.raises(SearchBoxTooLarge, match="holds more than 2,000,000"):
        search(spec, *box)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("search, tau, box", sorted(
    {(search, tau, box) for search in (search_zero_divisor, search_pair)
     for boxes in (_BOXES, _WIDE_BOXES)
     for tau, by_tau in boxes.items() for box in by_tau}
    | {(search_zero_divisor, tau, (-2, 2, 1)) for tau in (1, 2, 3, 4)}
    | {(search_pair, tau, (-1, 1, 1)) for tau in (1, 2, 3, 4)},
    key=lambda case: (case[0].__name__, case[1:])))
def test_the_boxes_in_use_fit_under_the_limit(monkeypatch, search, tau, box):
    # the boxes of the tests above, and the self-test's two boxes up to
    # tau 4; reaching the build means the box fits
    _stop_before_building(monkeypatch)
    spec = algebra_spec(*(s_parse(field(tau), x)
                          for x in ("t", "1", "t", "t", "1")), 64)
    with pytest.raises(_Reached):
        search(spec, *box)


# roots and the symbol argument read off the classification

_WORKING_PRECS = (*range(1, 10), 63, 64, 65, 100)


def _lanes(x):
    return x.lead, x.bits, x.prec


def _decided(spec, working_prec):
    """decide's verdict with every witness entry as (lead, bits, prec),
    or the exception's class and message."""
    try:
        v = decide(spec, working_prec)
    except (ValueError, ZeroDivisionError, UndeterminedAtPrecision) as exc:
        return type(exc), str(exc)
    witness = None if v.witness is None else [
        _lanes(x) for q in v.witness for x in (q.a, q.b, q.c, q.d)]
    return v.exists, v.matched_condition, witness


def _presented(spec):
    try:
        return tuple(map(_lanes, cyclic_presentation(spec)))
    except (ValueError, DegenerateForm, UndeterminedAtPrecision) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_WORKING_PRECS), st.booleans(), st.data())
def test_decide_reads_off_the_classification_what_it_solved(wp, cut, data):
    coeffs, _, _ = _coefficients(data.draw, (1, 2, 3))
    if cut:
        coeffs = [s_truncate(c, data.draw(st.integers(1, 70)))
                  if data.draw(st.booleans()) else c for c in coeffs]
    try:
        spec = algebra_spec(*coeffs, wp)
    except UndeterminedAtPrecision:
        assume(False)
    # solving again at the classifying precision gives the same bits
    with mock.patch.object(defects.QuadPoly, "roots", property(
            lambda m: _ref_solve_quadratic(m.a, m.b, m.prec))):
        want = _decided(spec, wp)
    assert _decided(spec, wp) == want
    presented = _presented(spec)
    m = next((m for m in (spec.m1, spec.m2) if not m.a.is_zero), None)
    if m is not None and type(presented[0]) is tuple:
        assert presented[0] == _lanes(s_div(m.b, s_square(m.a), wp))


@pytest.mark.parametrize("wp", [8, 32, 64])
def test_decide_neither_solves_nor_divides_again(monkeypatch, wp):
    # m1 = X^2 + X + t splits; the second datum is the division datum,
    # whose symbol argument is b1/a1^2; the third has Delta = 0 and m1 =
    # X^2 + X + t + t^2 splits
    data = [("t", "1", "t", "t", "1 + t"), ("0", "1", "1", "0", "t"),
            ("t", "1", "t + t^2", "0", "t^2")]
    specs = [algebra_spec(*map(_p, datum), wp) for datum in data]
    argument = s_div(specs[1].m1.b, s_square(specs[1].m1.a), wp)
    divide = existence.s_div
    quotients = []  # b/a^2 of the spec being decided

    def refuse_reduce(*args):
        raise AssertionError("reduced a classified quadratic again")

    def checked_div(a, b, *rest):
        assert (a, b) not in quotients, "divided b by a^2 again"
        return divide(a, b, *rest)
    monkeypatch.setattr(defects, "as_defect", refuse_reduce)
    monkeypatch.setattr(defects, "s_div", checked_div)
    monkeypatch.setattr(existence, "s_div", checked_div)
    verdicts = []
    for spec in specs:
        quotients[:] = [(m.b, s_square(m.a)) for m in (spec.m1, spec.m2)]
        verdicts.append(decide(spec, wp))
    assert [v.matched_condition for v in verdicts] == ["i", "none", "iii"]
    assert None not in (verdicts[0].witness, verdicts[2].witness)
    assert cyclic_presentation(specs[1])[0] == argument


def test_the_symbol_argument_is_not_divided_again(monkeypatch):
    spec = _spec("0", "1", "t", "0", "t")  # the argument is b1/a1^2 = t
    want = _presented(spec)

    def refuse(*args):
        raise AssertionError("divided b by a^2 again")
    monkeypatch.setattr(existence, "s_div", refuse)
    assert _presented(spec) == want

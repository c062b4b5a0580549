from __future__ import annotations

import copy
import math
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from btbranch import gf2
from btbranch.gf2 import field
from btbranch.series import (Series, UndeterminedAtPrecision, _square_bits,
                             s_add, s_div, s_from_terms, s_inv, s_monomial,
                             s_mul, s_one, s_parse, s_random, s_render,
                             s_split, s_sqrt, s_square, s_truncate, s_val,
                             s_zero, val_ge)
from references import (_canonical_reference, _ref_add, _ref_inv, _ref_mul,
                        _ref_split, _ref_square, _ref_square_bits)

F1 = field(1)
F2 = field(2)
F3 = field(3)


def _terms(tau):
    cfg = field(tau)
    return st.dictionaries(st.integers(-8, 8), st.integers(0, cfg.order - 1),
                           max_size=9).map(lambda d: s_from_terms(cfg, d))


# -- canonical form -------------------------------------------------

def test_leading_and_trailing_zero_coefficients_are_stripped():
    a = Series(F1, -2, (0, 1, 0, 1, 0))
    assert a.lead == -1
    assert a.coeffs == (1, 0, 1)


def test_zero_series_normalizes_lead():
    assert Series(F1, 5, ()).lead == 0
    assert s_zero(F1).is_zero


def test_precision_truncates_stored_coefficients():
    a = Series(F1, 0, (1, 1, 1, 1), prec=2)
    assert a.coeffs == (1, 1)
    assert a.prec == 2


def _outcome(build, *args):
    try:
        a = build(*args)
    except ValueError as exc:
        return str(exc)
    return (a.lead, a.coeffs, a.prec) if isinstance(a, Series) else a


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_canonical_form_matches_the_reference(tau, data):
    # leading and trailing zeros, prec below, at and above lead, and now
    # and then a coefficient outside the field
    fld = field(tau)
    coeff = st.one_of(st.integers(1, fld.order - 1),
                      st.integers(-2, fld.order + 1))
    body = data.draw(st.lists(coeff, max_size=6))
    coeffs = (data.draw(st.integers(0, 3)) * [0] + body
              + data.draw(st.integers(0, 3)) * [0])
    lead = data.draw(st.integers(-5, 5))
    prec = data.draw(st.one_of(
        st.none(), st.integers(lead - 3, lead + len(coeffs) + 3)))
    assert (_outcome(Series, fld, lead, tuple(coeffs), prec)
            == _outcome(_canonical_reference, fld, lead, coeffs, prec))


def test_coefficient_outside_field_is_rejected():
    with pytest.raises(ValueError):
        Series(F1, 0, (2,))


@pytest.mark.parametrize("fld, terms, message", [
    (F1, {0: 2}, "coefficient 2 outside F_(2^1)"),
    (F2, {-1: 0, 0: 1, 3: 4, 5: -1}, "coefficient 4 outside F_(2^2)"),
    (F3, {2: -3}, "coefficient -3 outside F_(2^3)"),
])
def test_coefficient_outside_field_gets_one_message(fld, terms, message):
    lo = min(terms)
    coeffs = tuple(terms.get(e, 0) for e in range(lo, max(terms) + 1))
    assert _outcome(_canonical_reference, fld, lo, coeffs, None) == message
    with pytest.raises(ValueError) as direct:
        Series(fld, lo, coeffs)
    with pytest.raises(ValueError) as from_terms:
        s_from_terms(fld, terms)
    assert str(direct.value) == str(from_terms.value) == message


@pytest.mark.parametrize("text, message", [
    ("g^2*t", "g^2 is not reduced in F_(2^2)"),
    ("-1*t", "bad coefficient monomial '-1'"),
])
def test_parse_refuses_a_coefficient_outside_the_field(text, message):
    # the grammar cannot spell one, so the range check is never reached
    assert _outcome(s_parse, F2, text) == message


def test_coeff_beyond_precision_raises():
    a = Series(F1, 0, (1,), prec=3)
    assert a.coeff(2) == 0
    with pytest.raises(UndeterminedAtPrecision):
        a.coeff(3)


def test_hash_is_the_hash_of_the_fields_eq_reads():
    # Vertex hashes are built on this value; it reads the packed lanes
    # as they are, so hashing unpacks nothing, and the field by its
    # modulus, which fixes it, so hashing calls no Python-level hash
    rng = random.Random(5)
    for fld in (F1, F2, F3):
        for prec in (None, 3, 40):
            a = s_random(fld, rng, -4, 70)
            a = Series(fld, a.lead, a.coeffs, prec)
            assert hash(a) == hash((fld.modulus, a.lead, a.bits, a.prec))


def test_equal_series_from_every_route_are_equal_and_hash_equal():
    parsed = s_parse(F2, "g*t^-1 + (1+g)*t^2 (mod t^4)")
    built = Series(F2, -2, (0, 2, 0, 0, 3, 0, 1, 2, 3), 4)
    summed = s_add(s_mul(s_monomial(F2, -1, 3), s_parse(F2, "(1+g) + t^3")),
                   s_parse(F2, "t^5 (mod t^4)"))
    assert parsed == built == summed
    assert hash(parsed) == hash(built) == hash(summed)
    assert s_add(summed, summed) == s_parse(F2, "0 (mod t^4)")


def test_series_are_immutable():
    a = s_parse(F2, "g*t^-1 + t (mod t^3)")
    for name in ("field", "lead", "bits", "prec", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.lead, a.coeffs, a.prec) == (-1, (2, 0, 1), 3)
    # copies and pickles are rebuilt through the constructor
    assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))


# -- valuation ------------------------------------------------------

def test_valuation_of_exact_zero_is_infinite():
    assert s_val(s_zero(F1)) == math.inf


def test_valuation_of_inexact_zero_is_undetermined():
    with pytest.raises(UndeterminedAtPrecision):
        s_val(Series(F1, 0, (), prec=4))


def test_val_ge_certifies_what_it_can_see():
    a = Series(F1, 0, (), prec=4)  # 0 (mod t^4)
    assert val_ge(a, 4)
    assert val_ge(s_zero(F1), 10 ** 6)
    assert val_ge(s_monomial(F1, 2), 2)
    assert not val_ge(s_monomial(F1, 2), 3)
    # an invisible zero cannot settle a deeper bound either way
    with pytest.raises(UndeterminedAtPrecision):
        val_ge(a, 5)


# -- arithmetic and the precision calculus --------------------------

def test_addition_keeps_the_coarser_precision():
    a = s_parse(F1, "1 + t (mod t^5)")
    b = s_parse(F1, "t + t^7")
    c = s_add(a, b)
    assert c.prec == 5
    assert s_render(c) == "1 (mod t^5)"


def test_multiplication_shifts_precision_by_the_other_valuation():
    a = s_parse(F1, "1 + t (mod t^5)")
    b = s_monomial(F1, 2)
    c = s_mul(a, b)
    assert c.prec == 7
    assert s_render(c) == "t^2 + t^3 (mod t^7)"


def test_multiplying_by_exact_zero_is_exact_zero():
    a = s_parse(F1, "1 (mod t^3)")
    assert s_mul(a, s_zero(F1)).is_zero


@settings(max_examples=150)
@given(_terms(2), _terms(2), _terms(2))
def test_exact_ring_laws(a, b, c):
    assert s_add(a, b) == s_add(b, a)
    assert s_mul(a, b) == s_mul(b, a)
    assert s_mul(a, s_add(b, c)) == s_add(s_mul(a, b), s_mul(a, c))
    assert s_add(a, a).is_zero  # characteristic 2


def test_inverse_of_a_monomial_is_exact():
    a = s_monomial(F2, -3, 2)
    b = s_inv(a)
    assert b.prec is None
    assert s_mul(a, b) == s_one(F2)


def test_inverse_of_a_unit_works_to_working_precision():
    rng = random.Random(11)
    for _ in range(20):
        u = s_random(F2, rng, 0, 4)
        if u.looks_zero or u.lead != 0:
            continue
        prod = s_mul(u, s_inv(u, 32))
        diff = s_add(prod, s_one(F2))
        # single-term units invert exactly, the rest to the asked precision
        assert diff.is_zero or (diff.looks_zero and diff.prec >= 32)


def test_series_arithmetic_reads_the_tables_not_the_multiply(monkeypatch):
    # count every call to the carry-less multiply and to ff_mul, under
    # each name a btbranch module binds them by
    calls = Counter()
    for name in ("_poly_mulmod", "ff_mul"):
        original = getattr(gf2, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in [m for key, m in sys.modules.items()
                       if key.split(".")[0] == "btbranch"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    for fld in (F1, F2):
        fld.tables
        rng = random.Random(fld.tau)
        a, b = (s_random(fld, rng, 0, 12, nonzero=True) for _ in range(2))
        unit = s_add(s_one(fld), s_random(fld, rng, 1, 12))
        s_mul(a, b)
        s_mul(s_monomial(fld, 3, fld.order - 1), b)
        s_inv(unit)
        s_square(a)
        s_split(a)
    assert calls == Counter()
    # the counters are wired: fresh tables and the trace still call them
    field(3, 0b1101).tables
    gf2.ff_trace(F2, 3)
    assert calls["_poly_mulmod"] > 0 and calls["ff_mul"] > 0


def test_adding_an_exact_zero_builds_nothing(monkeypatch):
    operands = [s_parse(F2, "g*t^-3 + t^5"), s_parse(F1, "1 + t (mod t^9)"),
                Series(F1, 0, (), 4), s_random(F3, random.Random(1), -2, 60)]
    zeros = [s_zero(a.field) for a in operands]
    built = []
    canonicalise = Series.__post_init__

    def counting(self):
        built.append(self)
        canonicalise(self)
    monkeypatch.setattr(Series, "__post_init__", counting)
    for a, z in zip(operands, zeros):
        assert s_add(a, z) is a and s_add(z, a) is a
    assert built == []
    # a zero that lowers the precision truncates the other operand
    cut = s_add(operands[0], Series(F2, 0, (), 2))
    assert (cut.lead, cut.coeffs, cut.prec) == (-3, (2,), 2)
    assert len(built) == 2


def test_division_by_inexact_zero_is_undetermined():
    with pytest.raises(UndeterminedAtPrecision):
        s_div(s_one(F1), Series(F1, 0, (), prec=4))


# -- square roots ---------------------------------------------------

@settings(max_examples=100)
@given(_terms(3))
def test_sqrt_inverts_squaring(a):
    assert s_sqrt(s_square(a)) == a


def test_sqrt_of_visible_odd_exponent_fails():
    with pytest.raises(ValueError):
        s_sqrt(s_parse(F1, "t^3 + t^4"))


def test_sqrt_halves_precision():
    a = s_parse(F1, "t^2 (mod t^9)")
    r = s_sqrt(a)
    assert r.prec == 5
    assert s_render(r) == "t (mod t^5)"


def test_truncate_forgets_the_tail():
    a = s_parse(F1, "1 + t^4")
    b = s_truncate(a, 3)
    assert b.prec == 3
    assert s_render(b) == "1 (mod t^3)"


# -- grammar --------------------------------------------------------

@pytest.mark.parametrize("text", [
    "0", "1", "t", "t^-3 + 1 + g*t^2", "(1+g)*t^-1 + g^2*t^3",
    "1 (mod t^4)", "0 (mod t^2)", "t^-2 + t (mod t^6)",
])
def test_grammar_round_trips_fixed_examples(text):
    a = s_parse(F3, text)
    assert s_parse(F3, s_render(a)) == a


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_grammar_round_trips_random_values(tau, data):
    cfg = field(tau)
    a = data.draw(_terms(tau))
    prec = data.draw(st.one_of(st.none(), st.integers(-4, 10)))
    a = Series(cfg, a.lead, a.coeffs, prec)
    assert s_parse(cfg, s_render(a)) == a


def test_parse_rejects_garbage():
    for bad in ("", "t^", "q + 1", "1 mod t^3", "t**2"):
        with pytest.raises(ValueError):
            s_parse(F1, bad)


def test_random_series_respects_the_support_box():
    rng = random.Random(3)
    for _ in range(50):
        a = s_random(F1, rng, -2, 3, nonzero=True)
        assert not a.looks_zero
        assert all(-2 <= e <= 3 for e, _ in a.terms())


# -- the packed lanes against the list references ---------------------

def _lanes_crossing_64_bits(fld, data):
    """A series of 0-70 terms, exact or truncated anywhere from below
    its lead to beyond its last term, with a lead of either sign."""
    coeffs = data.draw(st.lists(st.integers(0, fld.order - 1), max_size=70))
    lead = data.draw(st.integers(-40, 40))
    prec = data.draw(st.one_of(
        st.none(), st.integers(lead - 3, lead + len(coeffs) + 3)))
    return Series(fld, lead, coeffs, prec)


def _same_outcome(op, *args):
    try:
        return op(*args)
    except (ValueError, ZeroDivisionError, UndeterminedAtPrecision) as exc:
        return type(exc).__name__, str(exc)


def _triple(a):
    return a.lead, a.coeffs, a.prec


@pytest.mark.parametrize("op, ref, arity", [
    (s_add, _ref_add, 2), (s_mul, _ref_mul, 2), (s_inv, _ref_inv, 1),
    (s_square, _ref_square, 1), (s_split, _ref_split, 1),
], ids=["s_add", "s_mul", "s_inv", "s_square", "s_split"])
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_packed_lanes_match_the_list_references(op, ref, arity, tau, data):
    fld = field(tau)
    args = [_lanes_crossing_64_bits(fld, data) for _ in range(arity)]
    if op is s_inv:
        args.append(data.draw(st.integers(1, 80)))

    def packed(*xs):
        out = op(*xs)
        return (tuple(map(_triple, out)) if isinstance(out, tuple)
                else _triple(out))
    assert _same_outcome(packed, *args) == _same_outcome(ref, *args)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(-45, 115), st.data())
def test_multiplying_by_the_exact_one_returns_the_operand(tau, cut, data):
    fld = field(tau)
    one = s_one(fld)
    a = _lanes_crossing_64_bits(fld, data)
    for x in (a, s_truncate(a, cut)):
        # the second operand when both are the exact 1
        assert s_mul(one, x) is x
        assert s_mul(x, one) is (one if x == one else x)
        # the schoolbook product, bit for bit
        assert _ref_mul(one, x) == _triple(x) == _ref_mul(x, one)
    # neither t nor an inexact 1 is the exact unit
    t, near_one = s_monomial(fld, 1), s_truncate(one, 40)
    assert s_mul(t, a) is not a and s_mul(near_one, a) is not a


# -- the base-4 spread against the byte-table reference ---------------

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 600), st.data())
def test_square_bits_matches_the_byte_table_spread(tau, width, data):
    fld = field(tau)
    # whole lanes only, as a Series stores them
    x = data.draw(st.integers(0, (1 << width // tau * tau) - 1))
    assert _square_bits(fld, x) == _ref_square_bits(fld, x)


def test_square_bits_spreads_past_the_int_string_digit_limit():
    x = (1 << 20000) - 1  # 20,000 binary digits, above the 4,300 limit
    assert _square_bits(F1, x) == _ref_square_bits(F1, x)


# -- the seeded inverse against the list recurrence ---------------------

_WORKING_PRECS = (*range(1, 10), 63, 64, 65, 100)


def _inverse(a, wp):
    return _triple(s_inv(a, wp))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.sampled_from(_WORKING_PRECS), st.data())
def test_seeded_inverse_matches_the_list_recurrence(tau, wp, data):
    a = _lanes_crossing_64_bits(field(tau), data)
    assert _same_outcome(_inverse, a, wp) == _same_outcome(_ref_inv, a, wp)


@pytest.mark.parametrize("wp", _WORKING_PRECS)
def test_seeded_inverse_matches_on_every_ten_bit_unit(wp):
    # every residue of a unit mod t^10, so every seed entry, exact and
    # truncated at t^9
    for u in range(1, 1 << 10, 2):
        for prec in (None, 9):
            a = Series(F1, -2, [u >> i & 1 for i in range(10)], prec)
            assert (_same_outcome(_inverse, a, wp)
                    == _same_outcome(_ref_inv, a, wp)), (u, prec)

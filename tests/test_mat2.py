from __future__ import annotations

import pickle
import random
from dataclasses import asdict, fields

import pytest

from btbranch import defects
from btbranch.defects import RAMIFIED_SEP, REDUCIBLE_INSEP, classify
from btbranch.geometry import branch_shape
from btbranch.gf2 import field
from btbranch.mat2 import (Datum, Mat2, NonIntegral, PairConfig,
                           ScalarMatrix, companion, det, discriminant_params,
                           is_scalar, m_add, m_conj, m_inv, m_mul, m_parse,
                           m_render, m_scalar, m_scale, make_pair, min_poly,
                           sym_product, trace)
from btbranch.series import (s_add, s_monomial, s_mul, s_one, s_parse,
                             s_random, s_zero, val_ge)

F1 = field(1)
F2 = field(2)


def _rand_mat(rng, fld, lo=-2, hi=2):
    return Mat2(*(s_random(fld, rng, lo, hi) for _ in range(4)))


def _shear(fld, text, upper=True):
    p = s_parse(fld, text)
    one, zero = s_one(fld), s_zero(fld)
    return Mat2(one, p, zero, one) if upper else Mat2(one, zero, p, one)


# -- basic algebra --------------------------------------------------

def test_matrix_grammar_round_trips():
    rng = random.Random(31)
    for fld in (F1, F2):
        for _ in range(40):
            q = _rand_mat(rng, fld)
            assert m_parse(fld, m_render(q)) == q


def test_parse_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        m_parse(F1, "[[1,0],[0]]")
    with pytest.raises(ValueError):
        m_parse(F1, "[1,0,0,1]")


def test_companion_has_the_right_trace_and_determinant():
    a, b = s_parse(F1, "t"), s_parse(F1, "1+t")
    q = companion(a, b)
    assert trace(q) == a
    assert det(q) == b


def test_matrix_multiplication_against_a_hand_example():
    # [[1,t],[0,1]] [[1,0],[t^-1,1]] has a vanishing corner in char 2
    q = m_mul(_shear(F1, "t"), _shear(F1, "t^-1", upper=False))
    assert q == Mat2(s_zero(F1), s_parse(F1, "t"),
                     s_parse(F1, "t^-1"), s_one(F1))


def test_scalar_detection():
    assert is_scalar(m_scalar(s_parse(F1, "t")))
    assert not is_scalar(companion(s_zero(F1), s_zero(F1)))


# -- the symmetric product ------------------------------------------

def test_sym_product_is_symmetric_and_self_annihilating():
    rng = random.Random(7)
    for _ in range(50):
        q1, q2 = _rand_mat(rng, F2), _rand_mat(rng, F2)
        assert sym_product(q1, q2) == sym_product(q2, q1)
        assert sym_product(q1, q1).is_zero


def test_sym_product_is_a_conjugation_invariant():
    rng = random.Random(8)
    for _ in range(30):
        q1, q2 = _rand_mat(rng, F1), _rand_mat(rng, F1)
        g = m_mul(_shear(F1, "1 + t"), Mat2(s_monomial(F1, 1), s_zero(F1),
                                            s_zero(F1), s_one(F1)))
        lam = sym_product(q1, q2)
        assert sym_product(m_conj(g, q1), m_conj(g, q2)) == lam


def test_sym_product_expands_bilinearly_over_scalars():
    rng = random.Random(9)
    for _ in range(30):
        q1, q2 = _rand_mat(rng, F1), _rand_mat(rng, F1)
        x = s_random(F1, rng, 0, 2)
        lhs = sym_product(q1, m_scale(x, q2))
        assert lhs == s_mul(x, sym_product(q1, q2))
        # pairing against a scalar sees only the trace
        assert sym_product(q1, m_scalar(x)) == s_mul(x, trace(q1))


def test_discriminant_is_invariant_under_the_conjugate_swap():
    rng = random.Random(10)
    for _ in range(40):
        a1, b1 = s_random(F1, rng, 0, 2), s_random(F1, rng, 0, 2)
        a2, b2 = s_random(F1, rng, 0, 2), s_random(F1, rng, 0, 2)
        lam = s_random(F1, rng, -2, 2)
        d1 = discriminant_params(a1, b1, a2, b2, lam)
        d2 = discriminant_params(a1, b1, a2, b2,
                                 s_add(lam, s_mul(a1, a2)))
        assert d1 == d2


# -- minimal polynomials and pairs ----------------------------------

def test_every_matrix_satisfies_its_minimal_polynomial():
    rng = random.Random(12)
    for _ in range(40):
        q = _rand_mat(rng, F1, 0, 2)
        if is_scalar(q):
            continue
        m = min_poly(q)
        lhs = m_add(m_add(m_mul(q, q), m_scale(m.a, q)), m_scalar(m.b))
        assert all(x.is_zero for x in (lhs.a, lhs.b, lhs.c, lhs.d))


def test_conjugation_preserves_trace_and_determinant():
    rng = random.Random(13)
    g = m_mul(_shear(F1, "t + t^2", upper=False),
              Mat2(s_monomial(F1, -1), s_zero(F1), s_zero(F1), s_one(F1)))
    for _ in range(30):
        q = _rand_mat(rng, F1)
        qc = m_conj(g, q)
        assert trace(qc) == trace(q)
        assert det(qc) == det(q)


def test_inverse_of_an_elementary_product_is_exact():
    g = m_mul(_shear(F1, "1 + t^3"), Mat2(s_monomial(F1, 2), s_zero(F1),
                                          s_zero(F1), s_one(F1)))
    gi = m_inv(g)
    prod = m_mul(g, gi)
    assert prod.a == s_one(F1) and prod.d == s_one(F1)
    assert prod.b.is_zero and prod.c.is_zero


def test_make_pair_rejects_scalars_and_non_integral_generators():
    one, zero = s_one(F1), s_zero(F1)
    q = companion(one, one)
    with pytest.raises(ScalarMatrix):
        make_pair(m_scalar(s_parse(F1, "t")), q)
    bad = companion(s_parse(F1, "t^-1"), one)  # non-integral trace
    with pytest.raises(NonIntegral):
        make_pair(bad, q)
    bad = companion(one, s_parse(F1, "t^-2"))  # non-integral determinant
    with pytest.raises(NonIntegral):
        make_pair(q, bad)


def test_make_pair_allows_a_non_integral_pairing():
    # two nilpotent generators can pair with negative valuation even
    # though each generator alone is integral
    zero, one = s_zero(F1), s_one(F1)
    q1 = Mat2(zero, one, zero, zero)
    q2 = Mat2(zero, zero, s_parse(F1, "t^-3"), zero)
    datum = make_pair(q1, q2).datum
    assert datum.lam == s_parse(F1, "t^-3")
    assert datum.m1.kind == REDUCIBLE_INSEP
    assert datum.m2.kind == REDUCIBLE_INSEP


def test_pair_config_carries_the_classified_factors():
    q1 = companion(s_parse(F1, "t"), s_parse(F1, "t"))
    q2 = companion(s_parse(F1, "1"), s_parse(F1, "1"))
    pair = make_pair(q1, q2)
    assert isinstance(pair, PairConfig)
    assert [f.name for f in fields(PairConfig)] == ["q1", "q2", "datum"]
    datum = pair.datum
    assert datum.m1.kind == RAMIFIED_SEP and datum.prec == 64
    assert datum.disc == discriminant_params(datum.m1.a, datum.m1.b,
                                             datum.m2.a, datum.m2.b, datum.lam)
    assert val_ge(datum.disc, 0)


def test_a_datum_holds_one_precision():
    a, b = s_parse(F1, "1"), s_parse(F1, "t")
    q1, q2 = companion(a, b), companion(b, a)
    lam = sym_product(q1, q2)
    with pytest.raises(ValueError, match="one precision"):
        Datum(lam, classify(a, b, 8), classify(b, a, 64))
    datum = Datum(lam, classify(a, b, 8), classify(b, a, 8))
    assert datum.prec == 8
    # make_pair classifies both generators at the one precision it is given
    assert make_pair(q1, q2, 8).datum == datum


# -- classifying each matrix once -----------------------------------

def test_a_pair_and_its_two_branches_classify_each_generator_once():
    # classify's memo is the one place a classification is kept, and
    # tests/conftest.py empties it, so each miss is one classification
    q1 = companion(s_parse(F1, "1 + t"), s_parse(F1, "t"))
    q2 = companion(s_parse(F1, "t"), s_parse(F1, "1"))
    make_pair(q1, q2, 64)
    branch_shape(q1, 64)
    branch_shape(q2, 64)
    assert defects._classify.cache_info().misses == 2


def test_the_min_poly_memo_is_invisible():
    q = companion(s_parse(F1, "1 + t"), s_parse(F1, "t"))
    fresh = Mat2(q.a, q.b, q.c, q.d)
    at_64, at_8 = min_poly(q, 64), min_poly(q, 8)
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert len(fields(Mat2)) == 4 and asdict(q) == asdict(fresh)
    assert pickle.loads(pickle.dumps(q)) == q
    # the memo is keyed by working precision, which each answer records
    assert at_64.defect.reduced.prec != at_8.defect.reduced.prec
    assert (at_64.prec, at_8.prec) == (64, 8)
    assert at_8 == classify(trace(q), det(q), 8)
    assert min_poly(q, 64) is at_64 and min_poly(fresh, 8) == at_8

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, replace
from math import inf
from unittest import mock

import random

import pytest
from hypothesis import given, settings, strategies as st

import btbranch.defects as defects
import btbranch.geometry as geometry
import btbranch.series as series
from btbranch.defects import (QuadPoly, RAMIFIED_INSEP, RAMIFIED_SEP,
                              REDUCIBLE_INSEP, REDUCIBLE_SEP, UNRAMIFIED_SEP,
                              classify)
from btbranch.gf2 import field
from btbranch.geometry import (_commute, _member_test, _val_sum_capped,
                               InfiniteFoliage, ProjPoint, SharedMaxPath,
                               SharedRay, ThickLine, branch_shape,
                               check_agreement,
                               Disjoint, dist_to_path, fake_distance,
                               FoliageContained, FoliageMeet, Overlap,
                               predict_relpos, shape_members,
                               stem_length_of_kind)
from btbranch.mat2 import (Datum, Mat2, NonIntegral, PairConfig,
                           ScalarMatrix, companion, m_add, m_conj, make_pair,
                           min_poly)
from btbranch.series import (Series, UndeterminedAtPrecision, s_add, s_inv,
                             s_mul, s_one, s_parse, s_truncate, s_zero)
from btbranch.tree import (MeasuredShape, Vertex, enumerate_window,
                           measure_intersection, oracle_branch)
from references import (_ref_commute_by_products, _ref_dist_to_path_by_sums,
                        _ref_shape_member_by_sums, _ref_solve_quadratic,
                        _ref_val_capped)

F1 = field(1)


def _p(text):
    return s_parse(F1, text)


# stem lengths


def test_stem_length_by_class():
    assert stem_length_of_kind(REDUCIBLE_SEP) == inf
    assert stem_length_of_kind(UNRAMIFIED_SEP) == 0
    assert stem_length_of_kind(RAMIFIED_SEP) == 1
    assert stem_length_of_kind(REDUCIBLE_INSEP) == inf
    assert stem_length_of_kind(RAMIFIED_INSEP) == 1


# branch shapes of hand-picked matrices


def test_split_diagonal_matrix_has_a_full_line():
    q = Mat2(s_one(F1), s_zero(F1), s_zero(F1), s_zero(F1))
    sh = branch_shape(q)
    assert isinstance(sh, ThickLine)
    assert sh.stem_kind == "maxpath" and sh.depth == 0
    assert {e.render() for e in sh.ends} == {"0", "inf"}
    assert stem_length_of_kind(min_poly(q).kind) == inf


def test_unramified_matrix_sits_on_one_vertex():
    sh = branch_shape(Mat2(s_zero(F1), s_one(F1), s_one(F1), s_one(F1)))
    assert isinstance(sh, ThickLine)
    assert sh.stem_kind == "vertex" and sh.depth == 0
    assert [v.render() for v in sh.stem] == ["B[0]^0"]


def test_ramified_matrices_give_an_edge():
    for a, b in (("t", "t"), ("0", "t")):
        q = companion(_p(a), _p(b))
        sh = branch_shape(q)
        assert isinstance(sh, ThickLine)
        assert sh.stem_kind == "edge" and sh.depth == 0
        assert [v.render() for v in sh.stem] == ["B[0]^0", "B[0]^1"]
        assert stem_length_of_kind(min_poly(q).kind) == 1


def test_ramified_inseparable_depth_grows_with_the_jump():
    sh = branch_shape(companion(s_zero(F1), _p("t^3")))
    assert sh.depth == 1
    assert [v.render() for v in sh.stem] == ["B[0]^1", "B[0]^2"]


def test_nilpotent_matrix_gives_the_infinite_foliage():
    q = Mat2(s_zero(F1), s_one(F1), s_zero(F1), s_zero(F1))
    sh = branch_shape(q)
    assert isinstance(sh, InfiniteFoliage)
    assert sh.end.is_infinity and sh.level == 0
    assert stem_length_of_kind(min_poly(q).kind) == inf


def _member(shape, v):
    return _member_test(shape)(v)


def test_conjugated_nilpotent_foliage_points_at_a_finite_end():
    n = Mat2(s_zero(F1), s_one(F1), s_zero(F1), s_zero(F1))
    g = Mat2(s_one(F1), s_zero(F1), _p("t"), s_one(F1))
    sh = branch_shape(m_conj(g, n))
    assert isinstance(sh, InfiniteFoliage)
    assert sh.end.render() == "t^-1" and sh.level == -2
    assert _member(sh, Vertex(0, s_zero(F1)))
    assert _member(sh, Vertex(0, _p("t^-1")))
    assert not _member(sh, Vertex(1, s_zero(F1)))


def _sample_matrices():
    g = Mat2(s_one(F1), _p("t"), s_zero(F1), s_one(F1))
    samples = [
        companion(_p("t"), _p("t")),
        companion(s_zero(F1), _p("t")),
        companion(s_one(F1), s_zero(F1)),
        companion(s_one(F1), s_one(F1)),
        Mat2(s_zero(F1), _p("t^2"), s_zero(F1), s_zero(F1)),
        Mat2(s_one(F1), s_zero(F1), s_zero(F1), s_zero(F1)),
    ]
    return [m for q in samples for m in (q, m_conj(g, q))]


def test_shape_membership_matches_the_direct_oracle():
    w = enumerate_window(F1, 5)
    for m in _sample_matrices():
        assert shape_members(branch_shape(m), w) == oracle_branch(m, w)


# distances to ends


def test_distance_to_the_standard_path():
    zero = ProjPoint(s_zero(F1))
    one = ProjPoint(s_one(F1))
    end = ProjPoint(None)
    assert dist_to_path(Vertex(0, s_zero(F1)), zero, end) == 0
    assert dist_to_path(Vertex(2, s_one(F1)), zero, end) == 2
    assert dist_to_path(Vertex(0, s_zero(F1)), zero, one) == 0
    assert dist_to_path(Vertex(-2, s_zero(F1)), zero, one) == 2


# the sum-free capped valuation against building the sum


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (UndeterminedAtPrecision, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _operand(draw, fld):
    """Exact or truncated, short or working-precision long, or an
    inexact zero (no coefficients, finite prec)."""
    lead = draw(st.integers(-4, 8))
    n = draw(st.sampled_from((0, 1, 2, 3, 5, 8, 64)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coeffs = tuple(rng.randrange(fld.order) for _ in range(n))
    prec = draw(st.one_of(st.none(), st.integers(-4, 12),
                          st.just(lead + n), st.just(lead + 64)))
    return Series(fld, lead, coeffs, prec)


@settings(max_examples=400)
@given(st.integers(1, 2), st.data())
def test_sum_free_capped_valuation_equals_capping_the_sum(tau, data):
    fld = field(tau)
    x = data.draw(_operand(fld))
    y = data.draw(_operand(fld))
    cap = data.draw(st.integers(-6, 12))
    want = _outcome(lambda: _ref_val_capped(s_add(x, y), cap))
    assert _outcome(_val_sum_capped, x, y, cap) == want
    assert _outcome(_val_sum_capped, y, x, cap) == want


def test_sum_free_capped_valuation_on_long_ends_and_short_centers():
    rng = random.Random(3)
    for tau in (1, 2):
        fld = field(tau)
        for _ in range(200):
            end = Series(fld, rng.randrange(-2, 3),
                         tuple(rng.randrange(fld.order) for _ in range(64)),
                         rng.choice((None, 4, 6, 62)))
            r = rng.randrange(-3, 9)
            v = Vertex(r, Series(fld, 0, tuple(rng.randrange(fld.order)
                                               for _ in range(max(r, 0)))))
            assert (_outcome(_val_sum_capped, v.center, end, v.r)
                    == _outcome(lambda: _ref_val_capped(s_add(v.center, end),
                                                        v.r)))
    assert (_outcome(_val_sum_capped, s_one(F1), s_one(field(2)), 3)
            == _outcome(s_add, s_one(F1), s_one(field(2))))


def test_predicted_members_and_distances_match_building_the_sums():
    w = enumerate_window(F1, 5)
    matrices = _sample_matrices() + [companion(s_one(F1), _p("t")),
                                     companion(_p("1 + t"), _p("t^2"))]
    shapes = [branch_shape(m, prec) for m in matrices for prec in (4, 6, 64)]
    assert any(isinstance(sh, ThickLine) and sh.stem_kind == "maxpath"
               and any(e.value is not None and e.value.prec == 64
                       for e in sh.ends) for sh in shapes)
    refused = 0
    for sh in shapes:
        for v in w.vertices:
            assert (_outcome(_member, sh, v)
                    == _outcome(_ref_shape_member_by_sums, sh, v))
            if isinstance(sh, ThickLine) and sh.stem_kind == "maxpath":
                assert (_outcome(dist_to_path, v, *sh.ends)
                        == _outcome(_ref_dist_to_path_by_sums, v, *sh.ends))
        want = _outcome(lambda: {w.key(v) for v in w.vertices
                                 if _ref_shape_member_by_sums(sh, v)})
        assert _outcome(shape_members, sh, w) == want
        refused += want[0] != "value"
    assert refused


# the case table


def _cls(a, b):
    return classify(_p(a), _p(b), 64)


def test_fake_distance_fixed_values():
    red = _cls("1", "0")
    ram = _cls("t", "t")
    ram_i = _cls("0", "t")
    unram = _cls("1", "1")
    # twice the fake distances 2, -inf, -1/2, 1, -1/2 and -inf
    assert fake_distance(Datum(_p("t^-2"), red, red)) == 4
    assert fake_distance(Datum(s_one(F1), red, red)) == -inf
    assert fake_distance(Datum(_p("1 + t"), red, red)) == -1
    assert fake_distance(Datum(_p("t^-1"), ram, red)) == 2
    assert fake_distance(Datum(s_zero(F1), red, ram_i)) == -1
    assert fake_distance(Datum(s_zero(F1), unram, unram)) == -inf


def test_fake_distance_wants_a_visible_discriminant():
    red = _cls("1", "0")
    with pytest.raises(UndeterminedAtPrecision):
        fake_distance(Datum(s_parse(F1, "0 (mod t^6)"), red, red))


def _pair_for(lam_text, m1, m2):
    dummy = companion(s_one(F1), s_zero(F1))
    return PairConfig(dummy, dummy, Datum(_p(lam_text), m1, m2))


def test_predictions_from_the_case_table():
    red = _cls("1", "0")
    ram = _cls("t", "t")
    nil = _cls("0", "0")
    assert predict_relpos(_pair_for("t^-2", red, red)) == Disjoint(2)
    assert predict_relpos(_pair_for("1 + t", red, red)) == Overlap(1)
    assert predict_relpos(_pair_for("t^-1", ram, red)) == Disjoint(1)
    # both nilpotent classes read the pairing valuation directly
    assert predict_relpos(_pair_for("0", nil, nil)) == FoliageContained()
    assert predict_relpos(_pair_for("t^-3", nil, nil)) == Disjoint(3)
    assert predict_relpos(_pair_for("t^2", nil, nil)) == FoliageMeet(2, 1, False)
    assert predict_relpos(_pair_for("t^3", nil, nil)) == FoliageMeet(3, 1, True)


def test_vanishing_discriminant_splits_on_the_commutator():
    # polynomial in q1: the two stems coincide entirely
    q1 = companion(s_one(F1), s_zero(F1))
    q2 = Mat2(_p("t"), s_zero(F1), s_one(F1), _p("1 + t"))
    pair = make_pair(q1, q2, 64)
    assert predict_relpos(pair) == SharedMaxPath()
    # same eigen-end only: a shared ray
    r1 = Mat2(s_zero(F1), s_zero(F1), s_one(F1), s_one(F1))
    r2 = Mat2(s_zero(F1), s_zero(F1), _p("t"), s_one(F1))
    pair2 = make_pair(r1, r2, 64)
    assert predict_relpos(pair2) == SharedRay()


def test_overlap_length_is_capped_by_the_shorter_stem():
    ram = _cls("t", "t")
    # the determinant terms cancel, leaving a deep discriminant; the
    # overlap it suggests is cut down to the length-1 ramified stem
    df = fake_distance(Datum(_p("t^3"), ram, ram))
    assert df == -5  # twice -5/2
    assert predict_relpos(_pair_for("t^3", ram, ram)) == Overlap(1)


def test_forged_half_integer_distance_is_rejected():
    red = _cls("1", "0")
    honest = _cls("0", "t")
    # claim jump 0 for a polar coefficient: no matrix pair produces this
    forged = QuadPoly(s_zero(F1), _p("t^-1"), RAMIFIED_INSEP, 0, honest.defect,
                      honest.prec)
    with pytest.raises(ValueError, match="not an integer"):
        predict_relpos(_pair_for("0", red, forged))


# agreement between prediction and measurement


def _nilpotent_meet_pair(corner):
    n = Mat2(s_zero(F1), s_one(F1), s_zero(F1), s_zero(F1))
    g = Mat2(s_one(F1), s_zero(F1), _p(corner), s_one(F1))
    return make_pair(n, m_conj(g, n), 64)


def test_agreement_on_a_certified_measurement():
    w = enumerate_window(F1, 8)
    pair = _nilpotent_meet_pair("t")
    meas = measure_intersection(pair, w)
    ok, note = check_agreement(predict_relpos(pair), meas)
    assert ok, note
    wrong_kind = check_agreement(Disjoint(4), meas)
    assert not wrong_kind[0]
    wrong_number = check_agreement(FoliageMeet(4, 2, False), meas)
    assert not wrong_number[0]


_EVERY_POSITION = [
    (Disjoint(2), "disjoint", "disjoint"),
    (Overlap(1), "path", "overlap"),
    (SharedRay(), "ray", "ray"),
    (SharedMaxPath(), "maxpath", "maxpath"),
    (FoliageMeet(2, 1, False), "blob", "foliage meet"),
    (FoliageContained(), "contained", "containment"),
]


@pytest.mark.parametrize("pred,kind,noun", _EVERY_POSITION,
                         ids=[k for _, k, _ in _EVERY_POSITION])
def test_agreement_compares_kind_then_every_field(pred, kind, noun):
    assert pred.kind == kind
    same = MeasuredShape(kind, True, **asdict(pred))
    assert check_agreement(pred, same) == (True, "ok")
    other = "blob" if kind == "path" else "path"
    assert check_agreement(pred, replace(same, kind=other)) == \
        (False, f"predicted {noun}, measured {other}")
    for name, value in asdict(pred).items():
        changed = not value if isinstance(value, bool) else value + 1
        ok, why = check_agreement(pred, replace(same, **{name: changed}))
        assert not ok and "mismatch" in why
    assert not check_agreement(pred, replace(same, certified=False))[0]


_RAY = MeasuredShape("ray", True, length=3)
_CONTAINED = MeasuredShape("contained", True, diameter=3, containment="1in2")
_ONE_SIDED_OUTCOMES = [
    (_RAY, SharedMaxPath(),
     False, "predicted maxpath, measured ray, visible length 3"),
    (_RAY, Overlap(4), None, "window too small: measured ray, visible "
     "length 3; predicted overlap of length 4"),
    (_RAY, Overlap(2),
     False, "predicted overlap of length 2, measured ray, visible length 3"),
    (MeasuredShape("maxpath", True, length=3), SharedRay(), None,
     "window too small: measured maxpath, visible length 3; predicted ray"),
    (_CONTAINED, FoliageMeet(2, 1, False), False, "predicted foliage meet "
     "of diameter 2, measured contained, visible diameter 3"),
    (_CONTAINED, FoliageMeet(4, 2, False), None, "window too small: "
     "measured contained, visible diameter 3; predicted foliage meet of "
     "diameter 4"),
]


@pytest.mark.parametrize("meas,pred,verdict,message", _ONE_SIDED_OUTCOMES)
def test_a_one_sided_measurement_bounds_the_prediction_from_below(
        meas, pred, verdict, message):
    # a prediction with no length (a shared ray or maximal path) is
    # unbounded, so a one-sided kind it may be part of leaves it open
    assert check_agreement(pred, meas) == (verdict, message)


def test_agreement_requires_certification():
    pair = _nilpotent_meet_pair("t^-2")
    meas = measure_intersection(pair, enumerate_window(F1, 4))
    assert not meas.certified
    ok, _ = check_agreement(predict_relpos(pair), meas)
    assert not ok


def test_renders_name_the_configuration():
    assert "disjoint" in Disjoint(3).render()
    assert "overlap" in Overlap(2).render()
    assert "ray" in SharedRay().render()
    assert "maximal" in SharedMaxPath().render()
    assert "edge stem" in FoliageMeet(3, 1, True).render()
    assert "contains" in FoliageContained().render()


# ends of a split matrix read off its classification

_WORKING_PRECS = (*range(1, 10), 63, 64, 65, 100)


@st.composite
def _split_poly(draw, tau):
    """(a, b) = (r1 + r2, r1 r2) for r1 and r2 integral, either one
    possibly truncated."""
    fld = field(tau)
    coeff = st.integers(0, fld.order - 1)

    def root():
        s = Series(fld, draw(st.integers(0, 3)),
                   draw(st.lists(coeff, max_size=8)))
        prec = draw(st.one_of(st.none(), st.integers(0, 70)))
        return s if prec is None else s_truncate(s, prec)
    r1, r2 = root(), root()
    return s_add(r1, r2), s_mul(r1, r2)


@st.composite
def _split_matrix(draw, tau):
    """A matrix with C = 1 and A D = 0 and a split minimal polynomial:
    the companion [[0, b], [1, a]] or [[a, b], [1, 0]]."""
    a, b = draw(_split_poly(tau))
    if draw(st.booleans()):
        return companion(a, b)
    fld = field(tau)
    return Mat2(a, b, s_one(fld), s_zero(fld))


@st.composite
def _conjugated_companion(draw, tau):
    """g [[0, b], [1, a]] g^-1 for a split X^2 + aX + b, with g =
    [[1 + x y, x], [y, 1]] exact and of determinant 1."""
    fld = field(tau)
    coeff = st.integers(0, fld.order - 1)
    x, y = (Series(fld, draw(st.integers(-1, 2)),
                   draw(st.lists(coeff, max_size=4))) for _ in range(2))
    g = Mat2(s_add(s_one(fld), s_mul(x, y)), x, y, s_one(fld))
    return m_conj(g, companion(*draw(_split_poly(tau))))


def _split_matrices(tau):
    return st.one_of(_split_matrix(tau), _conjugated_companion(tau))


def _lanes(x):
    return x.lead, x.bits, x.prec


def _agree(x, y):
    """x and y are equal below their common precision."""
    return s_add(x, y).looks_zero


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.sampled_from(_WORKING_PRECS), st.data())
def test_split_ends_are_the_solved_fixed_points(tau, wp, data):
    q = data.draw(_split_matrices(tau))
    try:
        m = min_poly(q, wp)
        shape = branch_shape(q, wp)
    except (UndeterminedAtPrecision, ScalarMatrix, NonIntegral):
        return
    if m.kind != REDUCIBLE_SEP or q.c.is_zero:
        return
    ends = [e.value for e in shape.ends]
    for z in ends:  # C z^2 + (A + D) z + B
        fixed = s_add(s_add(s_mul(q.c, s_mul(z, z)), s_mul(m.a, z)), q.b)
        assert fixed.looks_zero, (z, fixed)
    y = s_inv(q.c, wp)
    try:
        want = _ref_solve_quadratic(s_mul(m.a, y), s_mul(q.b, y), wp)
    except UndeterminedAtPrecision:
        want = None
    if want is not None:
        z1, z2 = ends
        w1, w2 = want
        assert ((_agree(z1, w1) and _agree(z2, w2))
                or (_agree(z1, w2) and _agree(z2, w1))), (ends, want)
    if q.a.is_zero and q.c == s_one(q.c.field):
        # a companion keeps the roots of its classification, in order
        assert (list(map(_lanes, ends))
                == list(map(_lanes, m.roots)))


def _solving_calls(q, wp):
    """branch_shape(q, wp) once min_poly(q, wp) is kept, with the number
    of its as_defect calls and of its s_inv calls."""
    min_poly(q, wp)
    counts = Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call
    inv = counted("s_inv", series.s_inv)
    with (mock.patch.object(defects, "as_defect",
                            counted("as_defect", defects.as_defect)),
          mock.patch.object(series, "s_inv", inv),
          mock.patch.object(geometry, "s_inv", inv)):
        shape = branch_shape(q, wp)
    return shape, counts["as_defect"], counts["s_inv"]


def test_companion_ends_are_not_solved_again():
    q = companion(_p("t + t^2"), _p("t^3"))  # (X + t)(X + t^2)
    shape, reductions, inversions = _solving_calls(q, 64)
    assert (reductions, inversions) == (0, 1)
    assert [e.render() for e in shape.ends] == ["t^2 (mod t^65)",
                                                "t (mod t^65)"]


def test_split_ends_are_not_solved_again():
    # a general matrix moves its classified roots to its fixed points
    q = Mat2(_p("t"), _p("t^3"), _p("t"), _p("t^2"))
    shape, reductions, inversions = _solving_calls(q, 64)
    assert (reductions, inversions) == (0, 1)
    assert shape.stem_kind == "maxpath"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.sampled_from(_WORKING_PRECS), st.data())
def test_conjugated_split_ends_are_not_solved_again(tau, wp, data):
    q = data.draw(_conjugated_companion(tau))
    try:
        if min_poly(q, wp).kind != REDUCIBLE_SEP:
            return
        _, reductions, inversions = _solving_calls(q, wp)
    except (UndeterminedAtPrecision, ScalarMatrix, NonIntegral):
        return
    assert (reductions, inversions) == (0, 1)


# commutation from the three combinations that survive in characteristic 2

@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.data())
def test_commutation_from_three_combinations(tau, data):
    fld = field(tau)
    coeff = st.integers(0, fld.order - 1)

    def element():
        return Series(fld, data.draw(st.integers(-2, 2)),
                      data.draw(st.lists(coeff, max_size=4)))
    q1 = Mat2(*(element() for _ in range(4)))
    if data.draw(st.booleans()):
        # x + y q1 commutes with q1
        x, y = element(), element()
        q2 = m_add(Mat2(x, s_zero(fld), s_zero(fld), x),
                   Mat2(*(s_mul(y, e) for e in (q1.a, q1.b, q1.c, q1.d))))
    else:
        q2 = Mat2(*(element() for _ in range(4)))
    assert _commute(q1, q2) == _ref_commute_by_products(q1, q2)


def test_truncated_diagonals_commute():
    # two diagonal matrices commute; the product test saw a1 a2 + a2 a1
    # as zero only mod t^5 and so called them non-commuting
    q1 = Mat2(_p("1 + t (mod t^5)"), _p("0"), _p("0"), _p("t"))
    q2 = Mat2(_p("t^2"), _p("0"), _p("0"), _p("1"))
    assert _commute(q1, q2)
    assert not _ref_commute_by_products(q1, q2)

"""Seeded differential self-test across the whole stack.

Four independent cross-checks, all driven from one deterministic RNG:

* pair suite: predict_relpos against one measurement of the two oracle
  sets on random integral pairs, skipped exactly when check_agreement
  finds the measurement cannot settle it, so no predicted shape is read;
* branch suite: branch_shape against per-branch oracle sets and stem
  measurement;
* defect suite: as_defect / quad_defect against exhaustive minimization
  over a grid of substitutions, by linear algebra on series;
* symbol suite: the splitness decision against bounded zero-divisor and
  norm-form searches, which are one-sided proofs when they hit.  A box
  over the searches' limit is left out: the pair search's from tau 5
  up, the zero-divisor search's from tau 7 up.

One driver runs the four.  A suite draws an instance and checks it:
matched, mismatched or skipped, with a detail (a symbol datum no check
reaches is inconclusive).  An instance that runs out of generation,
precision or window is a skip, listed with its reason, never a mismatch.
A report with the same seed and configuration renders byte-identically.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import inf

from .defects import (KINDS, RAMIFIED_SEP, RAMIFIED_INSEP, REDUCIBLE_INSEP,
                      REDUCIBLE_SEP, as_defect, classify, quad_defect)
from .existence import (SearchBoxTooLarge, algebra_spec, decide,
                        search_pair, search_zero_divisor, verify_witness)
from .geometry import (Disjoint, InfiniteFoliage, Overlap, _finite_relpos,
                       branch_shape, check_agreement, dist_to_path,
                       fake_distance, predict_relpos, shape_members)
from .gf2 import field
from .mat2 import (Mat2, NonIntegral, ScalarMatrix, companion, m_add, m_conj,
                   m_scalar, m_scale, make_pair)
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, s_add,
                     s_monomial, s_mul, s_one, s_random, s_square, s_zero)
from .tree import (Vertex, WindowTooLarge, enumerate_window, measure_branch,
                   measure_intersection, oracle_branch)


# -- random ingredients ---------------------------------------------

def _rand_unit(rng, fld, hi=2):
    while True:
        u = s_random(fld, rng, 0, hi)
        if not u.looks_zero and u.lead == 0:
            return u


def _rand_conjugator(rng, fld):
    """Product of a few elementary moves: shears and a small translation.

    Each move multiplies g on the right, so it is a column operation on
    g: a shear adds x times one column to the other, a scaling multiplies
    the first column by t^(+-1).  Move 3 is the identity, drawn but not
    made.
    """
    a = d = s_one(fld)
    b = c = s_zero(fld)
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            x = s_random(fld, rng, 0, 2)
            b, d = s_add(s_mul(a, x), b), s_add(s_mul(c, x), d)
        elif kind == 1:
            x = s_random(fld, rng, 0, 2)
            a, c = s_add(a, s_mul(b, x)), s_add(c, s_mul(d, x))
        elif kind == 2:
            x = s_monomial(fld, rng.choice((-1, 1)))
            a, c = s_mul(a, x), s_mul(c, x)
    return Mat2(a, b, c, d)


def _rand_quad(rng, fld, kind, prec):
    """Rejection-sample integral (a, b) whose quadratic has the kind."""
    for _ in range(400):
        if kind in (REDUCIBLE_INSEP, RAMIFIED_INSEP):
            a = s_zero(fld)
        elif kind == RAMIFIED_SEP:
            a = s_mul(s_monomial(fld, rng.randrange(1, 3)),
                      _rand_unit(rng, fld, 1))
        else:
            a = s_random(fld, rng, 0, 2, nonzero=True)
        if kind == REDUCIBLE_INSEP:
            c = s_random(fld, rng, 0, 2)
            b = s_square(c)
        elif kind == RAMIFIED_SEP:
            b = s_mul(s_monomial(fld, rng.choice((1, 1, 3))),
                      _rand_unit(rng, fld, 1))
        else:
            b = s_random(fld, rng, 0, 3)
        m = classify(a, b, prec)
        if m.kind == kind:
            return m
    return None


def _rand_triangular(rng, fld):
    """Random integral triangular matrix: integral diagonal, wild corner."""
    x = s_random(fld, rng, 0, 3)
    z = s_random(fld, rng, 0, 3)
    y = s_random(fld, rng, -3, 3)
    if rng.randrange(2):
        return Mat2(x, y, s_zero(fld), z)
    return Mat2(x, s_zero(fld), y, z)


# -- pair strategies ------------------------------------------------
#
# Each strategy returns a raw (q1, q2) or None; the driver conjugates
# and validates.  Structured strategies use a common conjugator so the
# pairing they arranged survives.

_ALL_KIND_PAIRS = [(k1, k2) for k1 in KINDS for k2 in KINDS]


def _strat_raw(rng, fld, prec, state):
    q1, q2 = _rand_triangular(rng, fld), _rand_triangular(rng, fld)
    g1, g2 = _rand_conjugator(rng, fld), _rand_conjugator(rng, fld)
    return m_conj(g1, q1), m_conj(g2, q2)


def _companions(rng, fld, prec, k1, k2):
    """Conjugated companions of two quadratics of kinds k1 and k2."""
    ms = _rand_quad(rng, fld, k1, prec), _rand_quad(rng, fld, k2, prec)
    if None in ms:
        return None
    return tuple(m_conj(_rand_conjugator(rng, fld), companion(m.a, m.b))
                 for m in ms)


def _strat_companions(rng, fld, prec, state):
    k1, k2 = _ALL_KIND_PAIRS[state["kind_pair"] % len(_ALL_KIND_PAIRS)]
    state["kind_pair"] += 1
    return _companions(rng, fld, prec, k1, k2)


def _nilpotent_pair(rng, fld, lam_part):
    """Two inseparable-reducible matrices with the pairing ``lam_part``.

    Built from opposite shears so the pairing is exactly the chosen
    corner value, then moved by a common conjugation (which fixes it).
    """
    zero = s_zero(fld)
    a1 = s_random(fld, rng, 0, 2)
    a2 = s_random(fld, rng, 0, 2)
    q1 = Mat2(a1, s_one(fld), zero, a1)
    q2 = Mat2(a2, zero, lam_part, a2)
    g = _rand_conjugator(rng, fld)
    return m_conj(g, q1), m_conj(g, q2)


def _strat_foliage_contained(rng, fld, prec, state):
    zero = s_zero(fld)
    a1 = s_random(fld, rng, 0, 2)
    a2 = s_random(fld, rng, 0, 2)
    q1 = Mat2(a1, s_one(fld), zero, a1)
    q2 = Mat2(a2, _rand_unit(rng, fld), zero, a2)
    g = _rand_conjugator(rng, fld)
    return m_conj(g, q1), m_conj(g, q2)


def _strat_foliage_meet(rng, fld, prec, state):
    j = state["meet_depth"] % 4
    state["meet_depth"] += 1
    lam = s_mul(s_monomial(fld, j), _rand_unit(rng, fld, 1))
    return _nilpotent_pair(rng, fld, lam)


def _strat_foliage_disjoint(rng, fld, prec, state):
    s = rng.randrange(1, 3)
    lam = s_mul(s_monomial(fld, -s), _rand_unit(rng, fld, 1))
    return _nilpotent_pair(rng, fld, lam)


def _strat_shared_maxpath(rng, fld, prec, state):
    m1 = _rand_quad(rng, fld, REDUCIBLE_SEP, prec)
    if m1 is None:
        return None
    q1 = m_conj(_rand_conjugator(rng, fld), companion(m1.a, m1.b))
    x = s_random(fld, rng, 0, 2)
    y = _rand_unit(rng, fld)
    q2 = m_add(m_scalar(x), m_scale(y, q1))
    return q1, q2


def _strat_shared_ray(rng, fld, prec, state):
    for _ in range(60):
        x1, z1 = s_random(fld, rng, 0, 2), s_random(fld, rng, 0, 2)
        x2, z2 = s_random(fld, rng, 0, 2), s_random(fld, rng, 0, 2)
        y1, y2 = s_random(fld, rng, -2, 2), s_random(fld, rng, -2, 2)
        a1, a2 = s_add(x1, z1), s_add(x2, z2)
        if a1.is_zero or a2.is_zero:
            continue
        if s_add(s_mul(y1, a2), s_mul(y2, a1)).is_zero:
            continue  # they would commute and fuse into one maximal path
        zero = s_zero(fld)
        g = _rand_conjugator(rng, fld)
        return (m_conj(g, Mat2(x1, zero, y1, z1)),
                m_conj(g, Mat2(x2, zero, y2, z2)))
    return None


def _strat_with_kind(kind):
    def strat(rng, fld, prec, state):
        k2 = KINDS[state["second_kind"] % len(KINDS)]
        state["second_kind"] += 1
        return _companions(rng, fld, prec, kind, k2)
    return strat


_PAIR_STRATEGIES = (
    _strat_raw,
    _strat_companions,
    _strat_foliage_contained,
    _strat_foliage_meet,
    _strat_foliage_disjoint,
    _strat_shared_maxpath,
    _strat_shared_ray,
    _strat_with_kind(RAMIFIED_SEP),
    _strat_with_kind(RAMIFIED_INSEP),
    _strat_companions,
)


# -- the alternative sign reading, kept for arbitration -------------

def _floor_shift(datum):
    """What the floor reading adds to twice the fake distance: 4 t for
    each ramified separable factor, whose jump it adds, not subtracts."""
    return 4 * sum(m.t for m in (datum.m1, datum.m2)
                   if m.kind == RAMIFIED_SEP)


def _floor_relpos(pair):
    """Prediction under the literal floor reading of the case table: the
    finite rows at the fake distance shifted by _floor_shift.  A None
    return means that reading asks for a non-integral stem distance."""
    datum = pair.datum
    try:
        return _finite_relpos(fake_distance(datum) + _floor_shift(datum),
                              datum)
    except ValueError:
        return None


# -- pair suite -----------------------------------------------------

def compare_pair(pair, window, margin, sets=None):
    """Returns (status, detail, pred, meas): status in matched/mismatched/
    skipped, skipped when the measurement cannot settle the prediction.
    ``sets`` are the two oracle sets, if the caller built them."""
    pred = predict_relpos(pair)
    meas = measure_intersection(pair, window, margin, sets=sets)
    ok, why = check_agreement(pred, meas)
    status = {True: "matched", False: "mismatched", None: "skipped"}[ok]
    return status, type(pred).__name__ if ok else why, pred, meas


# -- branch suite ---------------------------------------------------

def _rand_branch_matrix(rng, fld, kind, prec):
    poly = _rand_quad(rng, fld, kind, prec)
    if poly is None:
        return None
    if kind == REDUCIBLE_SEP and rng.randrange(3) == 0:
        alpha = s_random(fld, rng, 0, 2)
        q = Mat2(alpha, s_random(fld, rng, -2, 2, nonzero=True),
                 s_zero(fld), s_add(alpha, poly.a))
    else:
        q = companion(poly.a, poly.b)
    return m_conj(_rand_conjugator(rng, fld), q)


def _check_foliage(shape, oset, window):
    leaves = [k for k in oset if window.boundary_distance(k) >= 1
              and sum(map(oset.__contains__, window.nbrs(k))) == 1]
    if not leaves:
        return "skipped", "no interior leaf visible"
    lvl = min(window.vertex(k).r for k in leaves)
    if lvl > shape.level and not shape.end.is_infinity:
        # the lowest leaf is B_end^[level]; where the filter above drops
        # it, a higher visible leaf proves nothing
        low = window.key(Vertex(shape.level, shape.end.value))
        if window.boundary_distance(low) < 1:
            return "skipped", "lowest leaf not visible"
    if lvl != shape.level:
        return "mismatched", f"leaf level {lvl} vs predicted {shape.level}"
    if not shape.end.is_infinity:
        seen = 0
        for r in range(max(shape.level, -window.radius), window.radius + 1):
            k = window.key(Vertex(r, shape.end.value))
            if window.boundary_distance(k) < 0:
                continue
            seen += 1
            if k not in oset:
                return "mismatched", f"end path misses the branch at level {r}"
        if seen == 0:
            return "skipped", "end path not visible in window"
    return "matched", ""


def _run_branch_instance(q, window, margin, prec):
    shape = branch_shape(q, prec)
    oset = oracle_branch(q, window)
    pset = shape_members(shape, window)
    if oset != pset:
        return ("mismatched",
                f"member sets differ on {len(oset ^ pset)} vertices")
    if isinstance(shape, InfiniteFoliage):
        return _check_foliage(shape, oset, window)
    mb = measure_branch(oset, window, margin)
    if not mb.certified:
        return "skipped", mb.note or "stem not certifiable"
    if mb.depth != shape.depth:
        return "mismatched", f"depth {mb.depth} vs predicted {shape.depth}"
    core = [window.vertex(k) for k in mb.core]
    if shape.stem_kind == "maxpath":
        off = [v for v in core if dist_to_path(v, *shape.ends) != 0]
    else:
        off = [v for v in core if v not in shape.stem]
    if off:
        return "mismatched", f"{len(off)} core vertices off the predicted stem"
    return "matched", ""


# -- defect suite (exhaustive minimisation over the substitution grid) --
#
# h -> h^2 + h and h -> h^2 are F_2-linear in characteristic 2, so the
# substitutions p(h) for h on the grid (support _GRID_LO.._GRID_HI, any
# residue coefficients) form an F_2-subspace W, and the best valuation
# of a + p(h) is a maximum over the coset a + W.  An echelon basis of W,
# keyed by each vector's lowest nonzero coefficient bit, finds it: once
# the lowest bit of a is no pivot, every other member of the coset has a
# lower or equal lowest bit.  Only series arithmetic is used, so the
# check shares nothing with the defect reductions it tests.

_GRID_LO, _GRID_HI = -4, 8
# a best valuation this high reflects where the grid stops, not a defect
_CAP = {True: 2, False: 7}  # keyed by artin


def _low_bit(a: Series):
    """The lowest nonzero bit of a: its exponent, then the coefficient bit."""
    return a.lead, (a.bits & -a.bits).bit_length() - 1


def _reduce(a: Series, basis: dict) -> Series:
    while not a.looks_zero and (key := _low_bit(a)) in basis:
        a = s_add(a, basis[key])
    return a


def _grid_basis(fld, artin: bool, lo: int = _GRID_LO, hi: int = _GRID_HI):
    """Echelon basis of {h^2 + h} (artin) or {h^2} over h on exponents
    lo..hi, keyed by lowest bit."""
    basis = {}
    for e in range(lo, hi + 1):
        for k in range(fld.tau):
            h = s_monomial(fld, e, 1 << k)
            # the plain product, not s_square: this check must not
            # share quad_defect's Frobenius
            image = s_mul(h, h)
            if artin:
                image = s_add(image, h)
            image = _reduce(image, basis)
            if not image.looks_zero:
                basis[_low_bit(image)] = image
    return basis


def _grid_best_val(a: Series, basis: dict, artin: bool) -> int | float:
    """Best valuation of a + substitution over the grid; inf, the
    valuation of the ideal (0), when a substitution kills the element
    outright or reaches the cap."""
    rest = _reduce(a, basis)
    if rest.looks_zero or rest.lead >= _CAP[artin]:
        return inf
    return rest.lead


def _run_defect_instance(rng, fld, bases):
    a = s_random(fld, rng, -6, 6)
    why = []
    for name, defect, artin in (("artin", as_defect, True),
                                ("square", quad_defect, False)):
        got = defect(a).ideal
        want = _grid_best_val(a, bases[artin], artin)
        if got != want:
            why.append(f"{name} defect {got} vs grid {want}")
    return not why, "; ".join(why)


# -- symbol suite ---------------------------------------------------

def _hits(search, datum, lo, hi) -> bool:
    """Whether search finds a hit with one-term coordinates on lo..hi; a
    box over the searches' limit is left out and counts as no hit."""
    try:
        return search(datum, lo, hi, 1) is not None
    except SearchBoxTooLarge:
        return False


def _run_symbol_instance(rng, fld, prec):
    """Returns (status, disagreement-or-empty): "matched" when a check
    reached the datum and each agreed, "inconclusive" when none reached
    it, and "skipped" when 100 draws gave Delta = 0.

    Raises UndeterminedAtPrecision when a witness identity looks zero but
    is known only below the precision verify_witness trusts.
    """
    for _ in range(100):
        a1 = s_random(fld, rng, 0, 2)
        b1 = s_random(fld, rng, 0, 2)
        a2 = s_random(fld, rng, 0, 2)
        b2 = s_random(fld, rng, 0, 2)
        lam = s_random(fld, rng, -1, 2)
        datum = algebra_spec(lam, a1, b1, a2, b2, prec)
        if not datum.disc.is_zero:
            break
    else:
        return "skipped", "could not draw a nondegenerate datum"
    verdict = decide(datum)
    status = "inconclusive"
    if datum.m1.reducible or datum.m2.reducible:
        status = "matched"
        if not verdict.exists:
            return "mismatched", "reducible factor but verdict says no pair"
    if verdict.witness is not None:
        status = "matched"
        if not verify_witness(datum, *verdict.witness):
            return "mismatched", "constructed witness fails verification"
    if _hits(search_zero_divisor, datum, -2, 2):
        status = "matched"
        if not verdict.exists:
            return "mismatched", "zero divisor found but verdict says division"
    if _hits(search_pair, datum, -1, 1):
        status = "matched"
        if not verdict.exists:
            return ("mismatched",
                    "norm-form solution found but verdict says division")
    return status, ""


# -- the report -----------------------------------------------------

@dataclass
class SelfTestReport:
    seed: int
    tau: int
    radius: int
    margin: int
    count: int
    pair_attempted: int = 0
    pair_safe: int = 0
    pair_matched: int = 0
    pair_mismatched: int = 0
    pair_skipped: int = 0
    cells: Counter = dc_field(default_factory=Counter)
    coverage: Counter = dc_field(default_factory=Counter)
    skipped_list: list = dc_field(default_factory=list)
    mismatch_list: list = dc_field(default_factory=list)
    branch_attempted: int = 0
    branch_matched: int = 0
    branch_mismatched: int = 0
    branch_skipped: int = 0
    branch_classes: Counter = dc_field(default_factory=Counter)
    defect_checked: int = 0
    defect_disagreements: int = 0
    symbol_specs: int = 0
    symbol_conclusive: int = 0
    symbol_disagreements: int = 0
    tsign_total: int = 0
    tsign_implemented: int = 0
    tsign_floor: int = 0

    @property
    def passing(self) -> bool:
        return not self.mismatch_list

    def record(self) -> dict:
        """The report as plain data: the JSON form, and what render prints."""
        return {
            "seed": self.seed, "tau": self.tau, "radius": self.radius,
            "margin": self.margin, "count": self.count,
            "pairs": {"attempted": self.pair_attempted, "safe": self.pair_safe,
                      "matched": self.pair_matched,
                      "mismatched": self.pair_mismatched,
                      "skipped": self.pair_skipped},
            "cells": dict(sorted(self.cells.items())),
            "coverage": dict(sorted(self.coverage.items())),
            "branches": {"attempted": self.branch_attempted,
                         "matched": self.branch_matched,
                         "mismatched": self.branch_mismatched,
                         "skipped": self.branch_skipped},
            "branch_classes": dict(sorted(self.branch_classes.items())),
            "defects": {"checked": self.defect_checked,
                        "disagreements": self.defect_disagreements},
            "symbols": {"specs": self.symbol_specs,
                        "conclusive": self.symbol_conclusive,
                        "disagreements": self.symbol_disagreements},
            "sign_reading": {"instances": self.tsign_total,
                             "negative_correction": self.tsign_implemented,
                             "floor_reading": self.tsign_floor},
            "skipped": sorted(self.skipped_list),
            "mismatches": sorted(self.mismatch_list),
            "passing": self.passing,
        }

    def render(self) -> str:
        rec = self.record()

        def counts(key):
            return " ".join(f"{k}={v}" for k, v in rec[key].items())

        head = " ".join(f"{k}={rec[k]}"
                        for k in ("seed", "tau", "radius", "margin", "count"))
        out = [f"selftest {head}", f"pairs: {counts('pairs')}"]
        out += [f"  cell {k}: {v}" for k, v in rec["cells"].items()]
        out += [f"  coverage {k}: {v}" for k, v in rec["coverage"].items()]
        out.append(f"branches: {counts('branches')}")
        out += [f"  class {k}: {v}" for k, v in rec["branch_classes"].items()]
        out.append(f"defects: {counts('defects')}")
        out.append(f"symbols: {counts('symbols')}")
        sign = rec["sign_reading"]
        out.append(f"sign reading: instances={sign['instances']} "
                   f"negative-correction matched={sign['negative_correction']} "
                   f"floor reading matched={sign['floor_reading']}")
        out.append("  resolution: ramified separable corrections enter "
                   "negatively; the literal floor reading fails above")
        if rec["skipped"]:
            out.append("skipped:")
            out.extend(f"  {line}" for line in rec["skipped"])
        if rec["mismatches"]:
            out.append("mismatches:")
            out.extend(f"  {line}" for line in rec["mismatches"])
        else:
            out.append("mismatches: none")
        out.append(f"verdict: {'PASS' if rec['passing'] else 'FAIL'}")
        return "\n".join(out) + "\n"


def run_selftest(seed: int = 7, tau: int = 1, modulus: int | None = None,
                 count: int = 500, radius: int = 8, margin: int = 2,
                 prec: int = DEFAULT_PREC) -> SelfTestReport:
    """Run the four suites in turn from one RNG and tally one report.

    A suite draws instance idx, giving the instance and its label, or
    None when generation runs out, and checks it, giving a status and a
    detail.  This loop alone catches what ends an instance: a draw or
    check that raises ScalarMatrix, NonIntegral, UndeterminedAtPrecision
    or WindowTooLarge is a skip with that reason, and any other
    ValueError from the pair check is a mismatch.  Each skip and mismatch
    is listed as "{suite} #{idx}[ {label}]: {detail}".
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    fld = field(tau, modulus)
    report = SelfTestReport(seed, tau, radius, margin, count)
    window = enumerate_window(fld, radius) if count else None
    state = {"kind_pair": 0, "meet_depth": 0, "second_kind": 0}
    bases = {artin: _grid_basis(fld, artin) for artin in (True, False)}

    def draw_pair(idx):
        raw = _PAIR_STRATEGIES[idx % len(_PAIR_STRATEGIES)](rng, fld, prec,
                                                            state)
        if raw is not None:
            pair = make_pair(raw[0], raw[1], prec)
            datum = pair.datum
            return pair, "/".join(sorted((datum.m1.cell, datum.m2.cell)))

    def check_pair(pair):
        status, detail, pred, meas = compare_pair(pair, window, margin)
        datum = pair.datum
        if (status != "skipped" and isinstance(pred, (Disjoint, Overlap))
                and RAMIFIED_SEP in (datum.m1.kind, datum.m2.kind)
                and fake_distance(datum) != -inf):
            # only finite stem distances discriminate the two sign
            # readings of the ramified separable correction
            report.tsign_total += 1
            report.tsign_implemented += status == "matched"
            alt = _floor_relpos(pair)
            if alt is not None and check_agreement(alt, meas)[0]:
                report.tsign_floor += 1
        return status, detail

    def tally_pair(status, cell, detail):
        report.pair_attempted += 1
        report.pair_safe += status != "skipped"
        report.pair_matched += status == "matched"
        report.pair_mismatched += status == "mismatched"
        report.pair_skipped += status == "skipped"
        if cell is not None:
            report.cells[f"{cell} {status}"] += 1
        if status == "matched":
            report.coverage[f"{cell} {detail}"] += 1

    def draw_branch(idx):
        kind = KINDS[idx % len(KINDS)]
        q = _rand_branch_matrix(rng, fld, kind, prec)
        return None if q is None else (q, kind)

    def tally_branch(status, kind, detail):
        report.branch_attempted += 1
        if kind is not None:
            report.branch_classes[f"{kind} {status}"] += 1
        report.branch_matched += status == "matched"
        report.branch_mismatched += status == "mismatched"
        report.branch_skipped += status == "skipped"

    def check_defect(_):
        ok, why = _run_defect_instance(rng, fld, bases)
        return "matched" if ok else "mismatched", why

    def tally_defect(status, label, detail):
        report.defect_checked += 1
        report.defect_disagreements += status == "mismatched"

    def tally_symbol(status, label, detail):
        report.symbol_specs += 1
        report.symbol_conclusive += status in ("matched", "mismatched")
        report.symbol_disagreements += status == "mismatched"

    suites = (
        ("pair", count, draw_pair, check_pair, tally_pair),
        ("branch", 2 * count // 5, draw_branch,
         lambda q: _run_branch_instance(q, window, margin, prec),
         tally_branch),
        ("defect", count, lambda idx: (None, None), check_defect,
         tally_defect),
        ("symbol", 2 * count // 5, lambda idx: (None, None),
         lambda _: _run_symbol_instance(rng, fld, prec), tally_symbol),
    )
    listed = {"skipped": report.skipped_list,
              "mismatched": report.mismatch_list}
    for name, n, draw, check, tally in suites:
        for idx in range(n):
            label = None
            try:
                if (drawn := draw(idx)) is None:
                    status, detail = "skipped", "generation exhausted"
                else:
                    instance, label = drawn
                    status, detail = check(instance)
            except (ScalarMatrix, NonIntegral, UndeterminedAtPrecision,
                    WindowTooLarge) as exc:
                status, detail = "skipped", (
                    f"undetermined at precision: {exc}"
                    if isinstance(exc, UndeterminedAtPrecision) else str(exc))
            except ValueError as exc:
                if name != "pair":
                    raise
                status, detail = "mismatched", f"prediction failed: {exc}"
            tally(status, label, detail)
            if status in listed:
                tag = "" if label is None else f" {label}"
                listed[status].append(f"{name} #{idx}{tag}: {detail}")
    return report

"""Deciding whether a pairing datum is realised by a matrix pair.

Given lambda and two monic quadratics m1, m2 over the integer ring, is
there a pair of non-scalar, linearly independent 2x2 matrices q1, q2
with m_i(q_i) = 0 and pairing lambda?  The datum presents a 4-dimensional
algebra; when its discriminant Delta is nonzero that algebra is
quaternion and the question is whether it splits, which a cyclic
presentation plus the residue symbol answers.  When Delta vanishes the
algebra degenerates and the answer reduces to explicit root conditions,
with equally explicit witness pairs.

Everything symbolic here is backed by searches: a zero divisor found by
search_zero_divisor is a proof of splitting, independent of the symbol.
Both searches evaluate the reduced norm as one quadratic form on the
basis (1, Q1, Q2, Q1Q2), whose coefficients are monomials in the datum:
n = (1, b1, b2, b1 b2) on the squares and p_01 = a1, p_02 = a2, p_03 =
lambda + a1 a2, p_12 = lambda, p_13 = a2 b1, p_23 = a1 b2 on the cross
terms.  Its Pfaffian p_01 p_23 + p_02 p_13 + p_03 p_12 is Delta.  They
enumerate: solving the form for a root would be the Artin-Schreier
question decide answers.  What depends only on the datum is built once
per datum and kept in its instance ``__dict__`` (_search_tables), the
rest that does not depend on the candidate once per search, so each
candidate is tested with table lookups, shifts and XORs of packed ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from operator import xor
from typing import NamedTuple

from .defects import as_argument, classify
from .gf2 import ff_trace
from .mat2 import (Datum, Mat2, is_scalar, m_add, m_mul, m_scalar, m_scale,
                   sym_product)
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, _make,
                     _ones, s_add, s_div, s_mul, s_one, s_parse, s_split,
                     s_square, s_zero)


class DegenerateForm(Exception):
    """The datum does not present a quaternion algebra (Delta = 0)."""


def algebra_spec(lam: Series, a1: Series, b1: Series, a2: Series,
                 b2: Series, working_prec: int = DEFAULT_PREC) -> Datum:
    """The datum, both quadratics classified at working_prec, where the
    roots of a reducible one and the symbol argument b/a^2 of a
    separable one are read."""
    return Datum(lam, classify(a1, b1, working_prec),
                 classify(a2, b2, working_prec))


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    matched_condition: str  # "i" | "ii" | "iii" | "iv" | "v" | "none"
    witness: tuple[Mat2, Mat2] | None = None


# -- the cyclic presentation and the residue symbol -----------------

def cyclic_presentation(datum: Datum) -> tuple[Series, Series]:
    """Rewrite the algebra as [a, b): u^2+u = a, v^2 = b, vu = (u+1)v.

    Needs Delta != 0; with both traces zero the generators are traded
    for q1 q2 / lambda, dividing at the datum's precision, and a
    vanishing norm makes the algebra split outright, reported as the
    trivial symbol [0, 1).
    """
    m1, m2, lam = datum.m1, datum.m2, datum.lam
    fld = lam.field
    delta = datum.checked_disc()
    if delta.is_zero:
        raise DegenerateForm("the datum with Delta = 0 is not quaternion")
    for m in (m1, m2):
        if not m.a.is_zero:
            return as_argument(m.defect), delta  # b/a^2
    # both traces vanish, so Delta = lambda^2 and lambda != 0
    if m1.b.is_zero or m2.b.is_zero:
        return s_zero(fld), s_one(fld)
    return s_div(s_mul(m1.b, m2.b), s_square(lam), datum.prec), m2.b


def splits(a: Series, b: Series, working_prec: int = DEFAULT_PREC) -> bool:
    """Whether the cyclic algebra [a, b) is a matrix algebra.

    By the residue formula the obstruction is the residue-field trace of
    the t^-1 coefficient of a db/b.  With b = xi^2 + t eta^2 the formal
    derivative is eta^2, squares having derivative zero.

    Only terms of 1/b up to t^(-1 - val a - val db) reach t^-1, so when
    a, b and db are visibly nonzero b is inverted to val b - val a -
    val db terms (at least one, at most working_prec).
    """
    if b.is_zero:
        raise ValueError("the second symbol argument must be nonzero")
    db = s_square(s_split(b)[1])
    if a.bits and b.bits and db.bits:
        working_prec = min(working_prec,
                           max(1, b.lead - a.lead - db.lead))
    form = s_mul(a, s_div(db, b, working_prec))
    return ff_trace(a.field, form.coeff(-1)) == 0


# -- searches (independent of the symbol machinery) -----------------
#
# The searches test candidates on packed ints, the lanes of series.py:
# every value they compare is an exact Laurent polynomial laid out on one
# common base exponent, so a sum is an XOR and a candidate hits exactly
# when the XOR of its terms is 0.  Each coefficient c of the norm form is
# scaled by every residue-field unit once per datum, in the tables both
# searches read; a term c u v is then one of those copies shifted into
# place per pair of terms of u and v, and c u^2 is the same product with
# v = u, never a Frobenius.  A box element is a list of its terms
# (log c, lane offset); only the coordinates a search returns become
# series.

_PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: the most candidates one search may test; a larger box is refused
#: before anything is built
MAX_SEARCH_CANDIDATES = 2_000_000


class SearchBoxTooLarge(ValueError):
    """The box holds more candidates than MAX_SEARCH_CANDIDATES."""


def _norm_form(datum: Datum):
    """The reduced norm as a quadratic form on the basis (1, Q1, Q2, Q1Q2).

    Returns n and p with nrd(sum x_i B_i) = sum n_i x_i^2 + sum_{i<j}
    p_ij x_i x_j; each coefficient is a monomial in the datum.
    """
    lam = datum.lam
    a1, b1 = datum.m1.a, datum.m1.b
    a2, b2 = datum.m2.a, datum.m2.b
    n = [s_one(lam.field), b1, b2, s_mul(b1, b2)]
    p = {(0, 1): a1, (0, 2): a2, (0, 3): s_add(lam, s_mul(a1, a2)),
         (1, 2): lam, (1, 3): s_mul(a2, b1), (2, 3): s_mul(a1, b2)}
    return n, p


class SearchTables(NamedTuple):
    """What both searches read of one datum; none of it depends on the box.

    n and p are the norm form.  Every row is packed on low, the lowest
    lead of a nonzero coefficient, which no term c t^e of a coefficient
    starts below: a product with u and v on a box lo..hi then starts at
    low + 2 lo or above, the base of every value a search compares.
    n_rows[i] and p_rows[i, j] are the unit-scaled rows of n_i and p_ij
    (see _unit_rows).  planes[u_in, v_in] lists (i, j, p_rows[i, j]) for
    the planes on which u B_i + v B_j can hit, by which of u and v are
    nonzero: a term with a zero coordinate is left out, and one with an
    inexact coefficient is never exact.
    """

    n: list[Series]
    p: dict[tuple[int, int], Series]
    low: int
    n_rows: list[list[int]]
    p_rows: dict[tuple[int, int], list[int]]
    planes: dict[tuple[bool, bool], list[tuple[int, int, list[int]]]]


def _search_tables(datum: Datum) -> SearchTables:
    """The tables of the datum, built on first read and kept in its
    instance ``__dict__``, as mat2._trace_det keeps a matrix's."""
    tables = datum.__dict__.get("_search_tables")
    if tables is not None:
        return tables
    n, p = _norm_form(datum)
    low = min(c.lead for c in (*n, *p.values()) if c.bits)
    rows = _unit_rows((*n, *(p[ij] for ij in _PLANES)), low)
    n_rows = rows[:4]
    p_rows = dict(zip(_PLANES, rows[4:]))
    every = [(i, j, p_rows[i, j]) for i, j in _PLANES]
    planes = {}
    for u_in, v_in in ((True, True), (True, False), (False, True)):
        planes[u_in, v_in] = [
            (i, j, row) for i, j, row in every
            if (n[i].is_exact or not u_in) and (n[j].is_exact or not v_in)
            and (p[i, j].is_exact or not (u_in and v_in))]
    tables = datum.__dict__["_search_tables"] = SearchTables(
        n, p, low, n_rows, p_rows, planes)
    return tables


def _packed(a: Series, base: int) -> int:
    """The lanes of a on base: lane i holds the coefficient of t^(base+i)."""
    return a.bits << (a.lead - base) * a.field.tau if a.bits else 0


def _unit_rows(coeffs, low: int) -> list[list[int]]:
    """For each coefficient c, exp[k] c packed on low, for k over two
    periods of the log table, so that a sum of two logs indexes it.

    Row 0 is c itself, and row k + 1 is row k times w = exp[1], lane by
    lane: with x_j bit j of a lane x, w x = sum_j x_j (w g^j), so one
    masked multiply per bit of a lane scales every lane at once.  w is
    the table's primitive element, which g need not be.
    """
    fld = coeffs[0].field
    log, exp = fld.tables
    tau = fld.tau
    w_g = [(j, exp[1 + log[1 << j]]) for j in range(tau)]
    packed = [_packed(c, low) for c in coeffs]
    ones = _ones(max(packed).bit_length(), tau)
    out = []
    for x in packed:
        row = [x]
        if x:
            for _ in range(fld.order - 2):
                y = 0
                for j, c in w_g:
                    y ^= (x >> j & ones) * c
                row.append(y)
                x = y
        else:
            row *= fld.order - 1
        out.append(row + row)
    return out


def _box_size(fld, lo: int, hi: int, max_terms: int) -> int:
    """How many series have at most max_terms terms on lo..hi, counted
    up to the first partial sum above MAX_SEARCH_CANDIDATES."""
    width = max(hi - lo + 1, 0)
    size = 0
    for k in range(min(max_terms, width) + 1):
        size += comb(width, k) * (fld.order - 1) ** k
        if size > MAX_SEARCH_CANDIDATES:
            break
    return size


def _refuse_over_limit(candidates: int, fld, lo: int, hi: int,
                       max_terms: int) -> None:
    if candidates > MAX_SEARCH_CANDIDATES:
        raise SearchBoxTooLarge(
            f"a search box {lo},{hi} over F_(2^{fld.tau}) with max_terms "
            f"{max_terms} holds more than {MAX_SEARCH_CANDIDATES:,} "
            "candidates")


@lru_cache(maxsize=32)
def _box_terms(fld, lo: int, hi: int, max_terms: int):
    """Every series with at most max_terms terms on lo..hi, as the tuple
    of its terms c t^e, (log c, the lane offset (e - lo) tau): zero
    first, then by number of terms, positions and coefficients.

    Built once per (field, box, max_terms) and shared, hence immutable:
    the self-test searches the same two boxes for every datum."""
    log = fld.tables[0]
    logs = [log[c] for c in range(1, fld.order)]
    offsets = [(e - lo) * fld.tau for e in range(lo, hi + 1)]
    box = [()]
    for n in range(1, min(max_terms, len(offsets)) + 1):
        for pos in itertools.combinations(offsets, n):
            for ks in itertools.product(logs, repeat=n):
                box.append(tuple(zip(ks, pos)))
    return tuple(box)


def _lanes(exp, terms) -> int:
    """A box element from its terms, packed on lo."""
    x = 0
    for k, h in terms:
        x ^= exp[k] << h
    return x


def _element(fld, lo: int, terms) -> Series:
    """The series of a box element from its terms."""
    return _make(fld, lo, _lanes(fld.tables[1], terms), None)


def _cross(scalings, u_terms, v_terms) -> int:
    """coeff u v packed on the search's base, from the unit-scaled row of
    coeff and the terms of u and v: one lookup, shift and XOR per pair of
    terms."""
    x = 0
    for ku, hu in u_terms:
        for kv, hv in v_terms:
            x ^= scalings[ku + kv] << hu + hv
    return x


def _first_root(row_y, row_w, k):
    """The first index i with row_y[i] ^ row_w[i] == k, or None.

    search_pair calls it once per (y, w), on one entry per distinct sum.
    """
    values = list(map(xor, row_y, row_w))
    return values.index(k) if k in values else None


def search_zero_divisor(datum: Datum, lo: int, hi: int,
                        max_terms: int = 1):
    """Look for a nonzero element of reduced norm zero.

    A hit is a proof that the (quaternion) algebra splits: the returned
    coordinates in (1, Q1, Q2, Q1Q2) have reduced norm zero.  Each
    candidate u B_i + v B_j is tested on the norm form of the plane
    (B_i, B_j), n_i u^2 + p_ij u v + n_j v^2.  The four n_i u^2 are
    built once per element u, so a candidate costs, per plane, one XOR
    of packed ints and one lookup, shift and XOR per pair of terms of u
    and v (one pair at max_terms = 1).  Only the planes of the datum's
    tables that can hit are tested.  Exhausting the box
    proves nothing; a box of more than MAX_SEARCH_CANDIDATES (u, v,
    plane) raises SearchBoxTooLarge.
    """
    fld = datum.lam.field
    size = _box_size(fld, lo, hi, max_terms)
    _refuse_over_limit(len(_PLANES) * size * size, fld, lo, hi, max_terms)
    tables = _search_tables(datum)
    elements = []
    for terms in _box_terms(fld, lo, hi, max_terms):
        squares = [_cross(row, terms, terms) for row in tables.n_rows]
        elements.append((terms, squares))
    planes = tables.planes
    for u_terms, u_squares in elements:
        for v_terms, v_squares in elements:
            if not (u_terms or v_terms):
                continue
            pairs = [(ku + kv, hu + hv) for ku, hu in u_terms
                     for kv, hv in v_terms]
            for i, j, scaled in planes[bool(u_terms), bool(v_terms)]:
                x = u_squares[i] ^ v_squares[j]
                for k, h in pairs:
                    x ^= scaled[k] << h
                if not x:
                    coords = [s_zero(fld)] * 4
                    coords[i] = _element(fld, lo, u_terms)
                    coords[j] = _element(fld, lo, v_terms)
                    return tuple(coords)
    return None


def search_pair(datum: Datum, lo: int, hi: int, max_terms: int = 1):
    """Look for (x,y),(z,w) with C(x,y,z,w) = lambda; None if none in the box.

    C is the pairing realised by norm-zero combinations, and y w C = y w
    lambda says exactly that s + e has reduced norm zero, where s = x + z
    and e = y Q1 + w Q2.  On the plane (1, e) the norm form reads
    s^2 + c s + k with c = p_01 y + p_02 w and k = nrd(e), so each
    distinct s is tested once per (y, w), against the first (x, z) in
    the box that sums to it; its terms are read off the packed sum.
    s^2 + p_01 y s and p_02 w s are built once per element and sum,
    b_1 y^2 and b_2 w^2 once per element, and k once per (y, w), so a
    candidate costs one XOR and one comparison of packed ints.  The
    comparison stays exact: with k inexact nothing hits, and with c
    inexact only s = 0 can.  A box of more than MAX_SEARCH_CANDIDATES
    ((y, w), s) raises SearchBoxTooLarge.
    """
    fld = datum.lam.field
    size = _box_size(fld, lo, hi, max_terms)
    sums_size = _box_size(fld, lo, hi, 2 * max_terms)
    _refuse_over_limit((size - 1) ** 2 * sums_size, fld, lo, hi, max_terms)
    tables = _search_tables(datum)
    n, p = tables.n, tables.p
    if not (n[1].is_exact and n[2].is_exact and p[1, 2].is_exact):
        return None  # k = b1 y^2 + lambda y w + b2 w^2 is never exact
    log, exp = fld.tables
    tau = fld.tau
    mask = (1 << tau) - 1
    pool = _box_terms(fld, lo, hi, max_terms)
    packed = [_lanes(exp, terms) for terms in pool]
    first = {}
    for x, px in enumerate(packed):
        for z, pz in enumerate(packed):
            first.setdefault(px ^ pz, (x, z))
    one, b1, b2 = tables.n_rows[:3]
    p01, p02, p12 = (tables.p_rows[ij] for ij in ((0, 1), (0, 2), (1, 2)))
    sums = []
    for s, xz in itertools.islice(first.items(), 1, None):  # s = 0 first
        s_terms = []
        h = 0
        while s:
            c = s & mask
            if c:
                s_terms.append((log[c], h))
            s >>= tau
            h += tau
        sums.append((_cross(one, s_terms, s_terms), s_terms, xz))
    terms = pool[1:]
    b1_squares = [_cross(b1, t, t) for t in terms]
    b2_squares = [_cross(b2, t, t) for t in terms]
    if p[0, 1].is_exact and p[0, 2].is_exact:
        # s^2 + p_01 y s by y and p_02 w s by w, one entry per sum
        rows_y = [[sq ^ _cross(p01, t, st) for sq, st, _ in sums]
                  for t in terms]
        rows_w = [[_cross(p02, t, st) for _, st, _ in sums] for t in terms]
    else:  # c is inexact: only s = 0 can hit
        rows_y = rows_w = [[]] * len(terms)
    for y_terms, b1yy, row_y in zip(terms, b1_squares, rows_y):
        for w_terms, b2ww, row_w in zip(terms, b2_squares, rows_w):
            k = b1yy ^ b2ww ^ _cross(p12, y_terms, w_terms)
            if not k:
                xz = (0, 0)
            else:
                hit = _first_root(row_y, row_w, k)
                if hit is None:
                    continue
                xz = sums[hit][2]
            x, z = (_element(fld, lo, pool[i]) for i in xz)
            return (x, _element(fld, lo, y_terms), z,
                    _element(fld, lo, w_terms))
    return None


# -- explicit witnesses ---------------------------------------------

def _witness_reducible(datum, swap):
    """A pair, in the datum's order, whose first generator (the second
    with swap) realises a root of its reducible quadratic m1, the other
    one's being m2.  The root is read off m1's classification, and the
    divisions are made at the datum's precision.

    With m1 = (X + alpha)^2, Delta = (lam + alpha a2)^2 = r^2, and decide
    comes here only with Delta != 0, so r != 0.
    """
    lam, prec = datum.lam, datum.prec
    m1, m2 = (datum.m2, datum.m1) if swap else (datum.m1, datum.m2)
    fld = lam.field
    alpha = m1.roots[0]
    z, o = s_zero(fld), s_one(fld)
    if not m1.a.is_zero:
        q1 = Mat2(s_add(m1.a, alpha), z, z, alpha)
        p = s_div(s_add(lam, s_mul(m2.a, s_add(m1.a, alpha))), m1.a, prec)
        q2 = Mat2(p, o, s_add(m2.b, s_mul(p, s_add(m2.a, p))), s_add(m2.a, p))
    else:  # m1 = (X + alpha)^2: take the nilpotent companion of alpha
        r = s_add(lam, s_mul(alpha, m2.a))
        q1 = Mat2(alpha, o, z, alpha)
        q2 = Mat2(z, s_div(m2.b, r, prec), r, m2.a)
    return (q2, q1) if swap else (q1, q2)


def _witness_commutative(datum):
    """A linearly independent pair for the doubly traceless, lambda = 0
    datum, or None when there is none.

    Both generators then commute, so q2 = c + s q1 with b2 = c^2 + s^2 b1,
    and the pair is independent exactly when c != 0.  Where c is 0 only
    to its precision, it raises UndeterminedAtPrecision.
    """
    fld = datum.lam.field
    b1, b2 = datum.m1.b, datum.m2.b
    z, o = s_zero(fld), s_one(fld)
    nil = Mat2(z, o, z, z)
    # split b_i = xi_i^2 + t eta_i^2; b_i is a square iff eta_i = 0, which
    # classify has settled exactly
    (xi1, et1), (xi2, et2) = s_split(b1), s_split(b2)
    sq1, sq2 = et1.looks_zero, et2.looks_zero
    if sq1 and sq2:
        if b1.is_zero and b2.is_zero:
            return None  # only multiples of one nilpotent commute
        q1 = m_add(m_scalar(xi1), nil)
        if xi1 == xi2:
            q2 = m_add(m_scalar(xi2), m_scale(s_parse(fld, "t"), nil))
        else:
            q2 = m_add(m_scalar(xi2), nil)
        return q1, q2
    if sq1 != sq2:
        return None  # a square and a non-square can never commute here
    # both inseparable irreducible: s = eta2/eta1 and c = xi2 + s xi1,
    # so c = 0 exactly when xi2 eta1 = xi1 eta2
    cross = s_add(s_mul(xi2, et1), s_mul(xi1, et2))
    if cross.looks_zero:
        if not cross.is_exact:
            raise UndeterminedAtPrecision(
                f"commutative witness: c is 0 mod t^{cross.prec} only")
        return None  # b2/b1 is a square: q2 = s q1
    s = s_div(et2, et1, datum.prec)
    q1 = Mat2(z, b1, o, z)
    q2 = m_add(m_scalar(s_add(xi2, s_mul(s, xi1))), m_scale(s, q1))
    return q1, q2


def verify_witness(datum: Datum, q1: Mat2, q2: Mat2) -> bool:
    """Hard check: minimal polynomials, pairing, non-scalarity, independence.

    False only on visible evidence: a scalar generator, a nonzero
    coefficient in an identity, or no visibly nonzero 2x2 minor of
    coordinates.  Witness entries may carry truncated roots, so the
    identities are trusted when their least precision (inf if all are
    exact) is 8 or more; a smaller one raises UndeterminedAtPrecision.
    """
    identities = [s_add(sym_product(q1, q2), datum.lam)]
    for m, q in ((datum.m1, q1), (datum.m2, q2)):
        if is_scalar(q):
            return False
        lhs = m_add(m_add(m_mul(q, q), m_scale(m.a, q)), m_scalar(m.b))
        identities += [lhs.a, lhs.b, lhs.c, lhs.d]
    if not all(x.looks_zero for x in identities):
        return False
    shallow = min((x.prec for x in identities if x.prec is not None),
                  default=inf)
    if shallow < 8:
        raise UndeterminedAtPrecision(
            f"witness identities are 0 mod t^{shallow} only, below t^8")
    for e1, e2 in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                   ("b", "d"), ("c", "d")):
        x1, y1 = getattr(q1, e1), getattr(q1, e2)
        x2, y2 = getattr(q2, e1), getattr(q2, e2)
        minor = s_add(s_mul(x1, y2), s_mul(y1, x2))
        if not minor.is_zero and not minor.looks_zero:
            return True
    return False


# -- the decision procedure -----------------------------------------

def decide(datum: Datum, working_prec: int | None = None) -> ExistenceVerdict:
    """Decide realisability and construct a witness pair where possible.

    Everything is read at the datum's precision; a working_prec other
    than it raises ValueError.  With both traces and lambda zero
    (condition v) the pair commutes, and the answer is yes only with a
    linearly independent witness.
    """
    if working_prec is not None and working_prec != datum.prec:
        raise ValueError(f"the datum was classified at precision "
                         f"{datum.prec}, not {working_prec}")
    delta = datum.checked_disc()
    m1, m2 = datum.m1, datum.m2
    if not delta.is_zero:
        if m1.reducible or m2.reducible:
            w = _witness_reducible(datum, not m1.reducible)
            return ExistenceVerdict(True, "i", w)
        a_sym, b_sym = cyclic_presentation(datum)
        if splits(a_sym, b_sym, datum.prec):
            return ExistenceVerdict(True, "ii", None)
        return ExistenceVerdict(False, "none", None)
    # Delta = 0
    if not m1.a.is_zero:
        if m1.reducible:
            w = _witness_reducible(datum, False)
            return ExistenceVerdict(True, "iii", w)
        return ExistenceVerdict(False, "none", None)
    if not m2.a.is_zero:
        if m2.reducible:
            w = _witness_reducible(datum, True)
            return ExistenceVerdict(True, "iv", w)
        return ExistenceVerdict(False, "none", None)
    # both traces vanish and lambda = 0: realised only by a commuting
    # pair, and only where a linearly independent one exists
    w = _witness_commutative(datum)
    if w is None:
        return ExistenceVerdict(False, "none", None)
    return ExistenceVerdict(True, "v", w)

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
question decide answers.  Everything that does not depend on the
candidate is built once, so each candidate is tested with table
lookups, shifts and XORs of packed ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import xor

from .defects import (QuadPoly, as_argument, classified_roots, classify,
                      solve_quadratic)
from .gf2 import ff_trace
from .mat2 import (Mat2, discriminant_params, is_scalar, m_add, m_mul,
                   m_scalar, m_scale, sym_product)
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, s_add,
                     s_div, s_from_terms, s_mul, s_one, s_parse, s_split,
                     s_square, s_zero)


class DegenerateForm(Exception):
    """The datum does not present a quaternion algebra (Delta = 0)."""


@dataclass(frozen=True)
class AlgebraSpec:
    lam: Series
    m1: QuadPoly
    m2: QuadPoly

    @cached_property
    def disc(self) -> Series:
        """Delta of the datum, computed on first read and kept."""
        return discriminant_params(self.m1.a, self.m1.b,
                                   self.m2.a, self.m2.b, self.lam)


def algebra_spec(lam: Series, a1: Series, b1: Series, a2: Series,
                 b2: Series, working_prec: int = DEFAULT_PREC) -> AlgebraSpec:
    """The datum, both quadratics classified at working_prec.

    The precision is kept in the instance ``__dict__``, outside the
    fields (so ==, hash and repr never see it), where decide reads it:
    at that precision the classifications already hold the roots and
    the symbol argument.  A spec built otherwise recomputes them.
    """
    spec = AlgebraSpec(lam, classify(a1, b1, working_prec),
                       classify(a2, b2, working_prec))
    spec.__dict__["_working_prec"] = working_prec
    return spec


def _classified_at(spec: AlgebraSpec, working_prec: int) -> bool:
    """Whether spec's quadratics were classified at working_prec."""
    return spec.__dict__.get("_working_prec") == working_prec


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    matched_condition: str  # "i" | "ii" | "iii" | "iv" | "v" | "none"
    witness: tuple[Mat2, Mat2] | None = None
    commutative_note: bool = False


# -- the cyclic presentation and the residue symbol -----------------

def _disc(spec: AlgebraSpec) -> Series:
    """Delta, refusing one that is zero only as far as it is known."""
    delta = spec.disc
    if delta.looks_zero and not delta.is_exact:
        raise UndeterminedAtPrecision(
            "discriminant vanishes to precision only")
    return delta


def cyclic_presentation(spec: AlgebraSpec) -> tuple[Series, Series]:
    """Rewrite the algebra as [a, b): u^2+u = a, v^2 = b, vu = (u+1)v.

    Needs Delta != 0; with both traces zero the generators are traded
    for q1 q2 / lambda, and a vanishing norm makes the algebra split
    outright, reported as the trivial symbol [0, 1).
    """
    m1, m2, lam = spec.m1, spec.m2, spec.lam
    fld = lam.field
    delta = _disc(spec)
    if delta.is_zero:
        raise DegenerateForm("the datum with Delta = 0 is not quaternion")
    for m in (m1, m2):
        if not m.a.is_zero:
            return _symbol_argument(spec, m), delta
    # both traces vanish, so Delta = lambda^2 and lambda != 0
    if m1.b.is_zero or m2.b.is_zero:
        return s_zero(fld), s_one(fld)
    return s_div(s_mul(m1.b, m2.b), s_square(lam)), m2.b


def _symbol_argument(spec: AlgebraSpec, m: QuadPoly) -> Series:
    """b/a^2 of the separable factor m, at DEFAULT_PREC: the series its
    classification reduced when the spec was classified there."""
    if _classified_at(spec, DEFAULT_PREC):
        return as_argument(m.defect)
    return s_div(m.b, s_square(m.a))


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
# scaled by every residue-field unit once per datum; a term c u v is then
# one of those copies shifted into place per pair of terms of u and v,
# and c u^2 is the same product with v = u, never a Frobenius.

_PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _norm_form(spec: AlgebraSpec):
    """The reduced norm as a quadratic form on the basis (1, Q1, Q2, Q1Q2).

    Returns n and p with nrd(sum x_i B_i) = sum n_i x_i^2 + sum_{i<j}
    p_ij x_i x_j; each coefficient is a monomial in the datum.
    """
    lam = spec.lam
    a1, b1 = spec.m1.a, spec.m1.b
    a2, b2 = spec.m2.a, spec.m2.b
    n = [s_one(lam.field), b1, b2, s_mul(b1, b2)]
    p = {(0, 1): a1, (0, 2): a2, (0, 3): s_add(lam, s_mul(a1, a2)),
         (1, 2): lam, (1, 3): s_mul(a2, b1), (2, 3): s_mul(a1, b2)}
    return n, p


def _small_elements(fld, lo, hi, max_terms=2):
    """All series with at most max_terms terms supported on lo..hi."""
    exps = range(lo, hi + 1)
    coeffs = range(1, fld.order)
    yield s_zero(fld)
    for n in range(1, max_terms + 1):
        for pos in itertools.combinations(exps, n):
            for cs in itertools.product(coeffs, repeat=n):
                yield s_from_terms(fld, dict(zip(pos, cs)))


def _base(n, p, lo: int) -> int:
    """The exponent of lane 0 of every packed value of a search.

    Each term is a coefficient times t^(e1 + e2) with e1, e2 >= lo, so
    none starts below the lowest lead of a nonzero coefficient plus 2 lo.
    """
    return min(c.lead for c in (*n, *p.values()) if c.bits) + 2 * lo


def _packed(a: Series, base: int) -> int:
    """The lanes of a on base: lane i holds the coefficient of t^(base+i)."""
    return a.bits << (a.lead - base) * a.field.tau if a.bits else 0


def _terms(a: Series, lo: int):
    """The terms c t^e of a, as (log c, the lane offset (e - lo) tau)."""
    fld = a.field
    log = fld.tables[0]
    return [(log[c], (e - lo) * fld.tau) for e, c in a.terms()]


def _scalings(coeff: Series, base: int, lo: int):
    """exp[k] coeff packed on base - 2 lo, for k over two periods of the
    log table, so that a sum of two logs indexes it.

    exp[k] c is exp[k + log c], one lookup per term c t^e of coeff.
    """
    exp = coeff.field.tables[1]
    terms = _terms(coeff, base - 2 * lo)
    row = []
    for k in range(coeff.field.order - 1):
        x = 0
        for kc, h in terms:
            x ^= exp[k + kc] << h
        row.append(x)
    return row + row


def _cross(scalings, u_terms, v_terms) -> int:
    """coeff u v packed on base, from _scalings(coeff) and the _terms of u
    and v: one lookup, shift and XOR per pair of terms."""
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


def search_zero_divisor(spec: AlgebraSpec, lo: int = -4, hi: int = 8,
                        max_terms: int = 1):
    """Look for a nonzero element of reduced norm zero.

    A hit is a proof that the (quaternion) algebra splits: the returned
    coordinates in (1, Q1, Q2, Q1Q2) have reduced norm zero.  Each
    candidate u B_i + v B_j is tested on the norm form of the plane
    (B_i, B_j), n_i u^2 + p_ij u v + n_j v^2.  The four n_i u^2 are
    built once per element u, so a candidate costs, per plane, one XOR
    of packed ints and one lookup, shift and XOR per pair of terms of u
    and v (one pair at max_terms = 1).  A term with a zero coordinate is
    left out; one with an inexact coefficient is never exact, so no plane
    that keeps it can hit.  Exhausting the box proves nothing.
    """
    n, p = _norm_form(spec)
    fld = spec.lam.field
    base = _base(n, p, lo)
    n_scaled = [_scalings(c, base, lo) for c in n]
    p_scaled = {ij: _scalings(p[ij], base, lo) for ij in _PLANES}
    elements = []
    for u in _small_elements(fld, lo, hi, max_terms):
        terms = _terms(u, lo)
        squares = [_cross(row, terms, terms) for row in n_scaled]
        elements.append((u, terms, squares))
    # the planes that can hit, by which of u and v are nonzero
    live = {}
    for u_in, v_in in ((True, True), (True, False), (False, True)):
        live[u_in, v_in] = [
            (i, j, p_scaled[i, j]) for i, j in _PLANES
            if (n[i].is_exact or not u_in) and (n[j].is_exact or not v_in)
            and (p[i, j].is_exact or not (u_in and v_in))]
    for u, u_terms, u_squares in elements:
        for v, v_terms, v_squares in elements:
            if not (u_terms or v_terms):
                continue
            pairs = [(ku + kv, hu + hv) for ku, hu in u_terms
                     for kv, hv in v_terms]
            for i, j, scaled in live[bool(u_terms), bool(v_terms)]:
                x = u_squares[i] ^ v_squares[j]
                for k, h in pairs:
                    x ^= scaled[k] << h
                if not x:
                    coords = [s_zero(fld)] * 4
                    coords[i], coords[j] = u, v
                    return tuple(coords)
    return None


def search_pair(spec: AlgebraSpec, lo: int = -4, hi: int = 8,
                max_terms: int = 1):
    """Look for (x,y),(z,w) with C(x,y,z,w) = lambda; None if none in the box.

    C is the pairing realised by norm-zero combinations, and y w C = y w
    lambda says exactly that s + e has reduced norm zero, where s = x + z
    and e = y Q1 + w Q2.  On the plane (1, e) the norm form reads
    s^2 + c s + k with c = p_01 y + p_02 w and k = nrd(e), so each
    distinct s is tested once per (y, w), against the first (x, z) in
    the box that sums to it.  s^2 + p_01 y s and p_02 w s are built once
    per element and sum, b_1 y^2 and b_2 w^2 once per element, and k
    once per (y, w), so a candidate costs one XOR and one comparison of
    packed ints.  The comparison stays exact: with k inexact nothing
    hits, and with c inexact only s = 0 can.
    """
    n, p = _norm_form(spec)
    if not (n[1].is_exact and n[2].is_exact and p[1, 2].is_exact):
        return None  # k = b1 y^2 + lambda y w + b2 w^2 is never exact
    fld = spec.lam.field
    base = _base(n, p, lo)
    pool = list(_small_elements(fld, lo, hi, max_terms))
    zero = pool[0]
    first = {}
    packed = [_packed(x, lo) for x in pool]
    for (x, px), (z, pz) in itertools.product(zip(pool, packed), repeat=2):
        first.setdefault(px ^ pz, (x, z))
    one, b1, b2, p01, p02, p12 = (
        _scalings(c, base, lo)
        for c in (n[0], n[1], n[2], p[0, 1], p[0, 2], p[1, 2]))
    sums = []
    for x, z in itertools.islice(first.values(), 1, None):  # s = 0 first
        s_terms = _terms(s_add(x, z), lo)
        sums.append((_cross(one, s_terms, s_terms), s_terms, (x, z)))
    nonzero = pool[1:]
    terms = [_terms(y, lo) for y in nonzero]
    b1_squares = [_cross(b1, t, t) for t in terms]
    b2_squares = [_cross(b2, t, t) for t in terms]
    if p[0, 1].is_exact and p[0, 2].is_exact:
        # s^2 + p_01 y s by y and p_02 w s by w, one entry per sum
        rows_y = [[sq ^ _cross(p01, t, st) for sq, st, _ in sums]
                  for t in terms]
        rows_w = [[_cross(p02, t, st) for _, st, _ in sums] for t in terms]
    else:  # c is inexact: only s = 0 can hit
        rows_y = rows_w = [[]] * len(nonzero)
    for y, y_terms, b1yy, row_y in zip(nonzero, terms, b1_squares, rows_y):
        for w, w_terms, b2ww, row_w in zip(nonzero, terms, b2_squares,
                                           rows_w):
            k = b1yy ^ b2ww ^ _cross(p12, y_terms, w_terms)
            if not k:
                return (zero, y, zero, w)
            hit = _first_root(row_y, row_w, k)
            if hit is not None:
                x, z = sums[hit][2]
                return (x, y, z, w)
    return None


# -- explicit witnesses ---------------------------------------------

def _witness_first_reducible(spec, m1, m2, working_prec):
    """A pair with q1 realising a root of the reducible m1; m1 and m2
    are the spec's two quadratics, in either order.

    The root is read off m1's classification when the spec was
    classified at working_prec, and solved for otherwise.
    """
    lam = spec.lam
    fld = lam.field
    if _classified_at(spec, working_prec):
        alpha = classified_roots(m1, working_prec)[0]
    else:
        alpha = solve_quadratic(m1.a, m1.b, working_prec)[0]
    z, o = s_zero(fld), s_one(fld)
    if not m1.a.is_zero:
        q1 = Mat2(s_add(m1.a, alpha), z, z, alpha)
        p = s_div(s_add(lam, s_mul(m2.a, s_add(m1.a, alpha))), m1.a,
                  working_prec)
        q2 = Mat2(p, o, s_add(m2.b, s_mul(p, s_add(m2.a, p))), s_add(m2.a, p))
        return q1, q2
    # m1 = (X + alpha)^2: take the nilpotent companion of alpha
    r = s_add(lam, s_mul(alpha, m2.a))
    if r.is_zero:
        return None
    q1 = Mat2(alpha, o, z, alpha)
    q2 = Mat2(z, s_div(m2.b, r, working_prec), r, m2.a)
    return q1, q2


def _witness_commutative(lam, m1, m2, working_prec):
    """Best-effort pair for the doubly traceless, lambda = 0 datum.

    Both generators then commute, so q2 is forced into K[q1] and a
    genuinely independent pair only exists for some coefficient shapes;
    None means no such pair exists at all (which the verdict documents
    rather than hides).
    """
    fld = lam.field
    b1, b2 = m1.b, m2.b
    z, o = s_zero(fld), s_one(fld)
    nil = Mat2(z, o, z, z)
    # split b_i = xi_i^2 + t eta_i^2; b_i is a square iff eta_i = 0
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
    # both inseparable irreducible
    s = s_div(et2, et1, working_prec)
    c = s_add(xi2, s_mul(s, xi1))
    if c.looks_zero:
        return None  # b2/b1 is a square as far as known: q2 ~ q1
    q1 = Mat2(z, b1, o, z)
    q2 = m_add(m_scalar(c), m_scale(s, q1))
    return q1, q2


def verify_witness(spec: AlgebraSpec, q1: Mat2, q2: Mat2) -> bool:
    """Hard check: minimal polynomials, pairing, non-scalarity, independence.

    False only on visible evidence: a scalar generator, a nonzero
    coefficient in an identity, or no visibly nonzero 2x2 minor of
    coordinates.  Witness entries may carry truncated roots, so the
    identities are trusted when they vanish mod t^8 or deeper; one known
    to vanish only to less raises UndeterminedAtPrecision.
    """
    identities = [s_add(sym_product(q1, q2), spec.lam)]
    for m, q in ((spec.m1, q1), (spec.m2, q2)):
        if is_scalar(q):
            return False
        lhs = m_add(m_add(m_mul(q, q), m_scale(m.a, q)), m_scalar(m.b))
        identities += [lhs.a, lhs.b, lhs.c, lhs.d]
    if not all(x.looks_zero for x in identities):
        return False
    shallow = min((x.prec for x in identities if x.prec is not None),
                  default=None)
    if shallow is not None and shallow < 8:
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

COMMUTATIVE_NOTE = ("every realising pair lies in a two-dimensional "
                    "commutative subalgebra")


def decide(spec: AlgebraSpec, working_prec: int = DEFAULT_PREC) -> ExistenceVerdict:
    """Decide realisability and construct a witness pair where possible."""
    delta = _disc(spec)
    m1, m2, lam = spec.m1, spec.m2, spec.lam
    if not delta.is_zero:
        if m1.reducible:
            w = _witness_first_reducible(spec, m1, m2, working_prec)
            return ExistenceVerdict(True, "i", w)
        if m2.reducible:
            w = _witness_first_reducible(spec, m2, m1, working_prec)
            if w is not None:
                w = (w[1], w[0])
            return ExistenceVerdict(True, "i", w)
        a_sym, b_sym = cyclic_presentation(spec)
        if splits(a_sym, b_sym, working_prec):
            return ExistenceVerdict(True, "ii", None)
        return ExistenceVerdict(False, "none", None)
    # Delta = 0
    if not m1.a.is_zero:
        if m1.reducible:
            w = _witness_first_reducible(spec, m1, m2, working_prec)
            return ExistenceVerdict(True, "iii", w)
        return ExistenceVerdict(False, "none", None)
    if not m2.a.is_zero:
        if m2.reducible:
            w = _witness_first_reducible(spec, m2, m1, working_prec)
            if w is not None:
                w = (w[1], w[0])
            return ExistenceVerdict(True, "iv", w)
        return ExistenceVerdict(False, "none", None)
    # both traces vanish and lambda = 0
    w = _witness_commutative(lam, m1, m2, working_prec)
    return ExistenceVerdict(True, "v", w, commutative_note=True)

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
question decide answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .defects import QuadPoly, classify, solve_quadratic
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

    @property
    def disc(self) -> Series:
        return discriminant_params(self.m1.a, self.m1.b,
                                   self.m2.a, self.m2.b, self.lam)


def algebra_spec(lam: Series, a1: Series, b1: Series, a2: Series,
                 b2: Series, working_prec: int = DEFAULT_PREC) -> AlgebraSpec:
    return AlgebraSpec(lam, classify(a1, b1, working_prec),
                       classify(a2, b2, working_prec))


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
    if not m1.a.is_zero:
        return s_div(m1.b, s_square(m1.a)), delta
    if not m2.a.is_zero:
        return s_div(m2.b, s_square(m2.a)), delta
    # both traces vanish, so Delta = lambda^2 and lambda != 0
    if m1.b.is_zero or m2.b.is_zero:
        return s_zero(fld), s_one(fld)
    return s_div(s_mul(m1.b, m2.b), s_square(lam)), m2.b


def splits(a: Series, b: Series, working_prec: int = DEFAULT_PREC) -> bool:
    """Whether the cyclic algebra [a, b) is a matrix algebra.

    By the residue formula the obstruction is the residue-field trace of
    the t^-1 coefficient of a db/b.  With b = xi^2 + t eta^2 the formal
    derivative is eta^2, squares having derivative zero.
    """
    if b.is_zero:
        raise ValueError("the second symbol argument must be nonzero")
    db = s_square(s_split(b)[1])
    form = s_mul(a, s_div(db, b, working_prec))
    return ff_trace(a.field, form.coeff(-1)) == 0


# -- searches (independent of the symbol machinery) -----------------

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


def _monomials(u, v):
    """(u^2, u v, v^2), with None for each one that has a zero coordinate."""
    # squares as products: the searches share no Frobenius with decide
    uu = None if u.is_zero else s_mul(u, u)
    vv = None if v.is_zero else s_mul(v, v)
    uv = None if uu is None or vv is None else s_mul(u, v)
    return uu, uv, vv


def _form_at(a, b, c, monomials):
    """a u^2 + b u v + c v^2 from _monomials(u, v), leaving out each term
    with a zero coordinate.

    A left-out term carries no precision, so the value is exact whenever
    the terms that remain are.
    """
    uu, uv, vv = monomials
    if uu is None:
        return s_zero(a.field) if vv is None else s_mul(c, vv)
    au2 = s_mul(a, uu)
    if vv is None:
        return au2
    return s_add(s_add(au2, s_mul(b, uv)), s_mul(c, vv))


def _small_elements(fld, lo, hi, max_terms=2):
    """All series with at most max_terms terms supported on lo..hi."""
    exps = range(lo, hi + 1)
    coeffs = range(1, fld.order)
    yield s_zero(fld)
    for n in range(1, max_terms + 1):
        for pos in itertools.combinations(exps, n):
            for cs in itertools.product(coeffs, repeat=n):
                yield s_from_terms(fld, dict(zip(pos, cs)))


def search_zero_divisor(spec: AlgebraSpec, lo: int = -4, hi: int = 8,
                        max_terms: int = 1):
    """Look for a nonzero element of reduced norm zero.

    A hit is a proof that the (quaternion) algebra splits: the returned
    coordinates in (1, Q1, Q2, Q1Q2) have reduced norm zero.  Each
    candidate u B_i + v B_j is tested on the norm form of the plane
    (B_i, B_j), n_i u^2 + p_ij u v + n_j v^2; u^2, u v and v^2 are built
    once per (u, v).  Exhausting the box proves nothing.
    """
    n, p = _norm_form(spec)
    fld = spec.lam.field
    for u, v in itertools.product(_small_elements(fld, lo, hi, max_terms),
                                  repeat=2):
        if u.is_zero and v.is_zero:
            continue
        monomials = _monomials(u, v)  # shared by the six planes
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            if _form_at(n[i], p[i, j], n[j], monomials).is_zero:
                x = [s_zero(fld)] * 4
                x[i], x[j] = u, v
                return tuple(x)
    return None


def search_pair(spec: AlgebraSpec, lo: int = -4, hi: int = 8,
                max_terms: int = 1):
    """Look for (x,y),(z,w) with C(x,y,z,w) = lambda; None if none in the box.

    C is the pairing realised by norm-zero combinations, and y w C = y w
    lambda says exactly that s + e has reduced norm zero, where s = x + z
    and e = y Q1 + w Q2.  On the plane (1, e) the norm form reads
    s^2 + c s + k with c = p_01 y + p_02 w and k = nrd(e), so each
    distinct s is tested once per (y, w), against the first (x, z) in
    the box that sums to it, and the comparison stays exact.  s^2 is
    built once per s.
    """
    n, p = _norm_form(spec)
    fld = spec.lam.field
    one = s_one(fld)
    pool = list(_small_elements(fld, lo, hi, max_terms))
    nonzero = [s for s in pool if not s.is_zero]
    first = {}
    for x, z in itertools.product(pool, repeat=2):
        first.setdefault(s_add(x, z), (x, z))
    sums = [(s, _monomials(s, one), xz) for s, xz in first.items()]
    for y, w in itertools.product(nonzero, repeat=2):
        k = _form_at(n[1], p[1, 2], n[2], _monomials(y, w))
        c = s_add(s_mul(p[0, 1], y), s_mul(p[0, 2], w))
        for s, monomials, (x, z) in sums:
            value = k if s.is_zero else _form_at(n[0], c, k, monomials)
            if value.is_zero:
                return (x, y, z, w)
    return None


# -- explicit witnesses ---------------------------------------------

def _witness_first_reducible(lam, m1, m2, working_prec):
    """A pair with q1 realising a root of the reducible m1."""
    fld = lam.field
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
            w = _witness_first_reducible(lam, m1, m2, working_prec)
            return ExistenceVerdict(True, "i", w)
        if m2.reducible:
            w = _witness_first_reducible(lam, m2, m1, working_prec)
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
            w = _witness_first_reducible(lam, m1, m2, working_prec)
            return ExistenceVerdict(True, "iii", w)
        return ExistenceVerdict(False, "none", None)
    if not m2.a.is_zero:
        if m2.reducible:
            w = _witness_first_reducible(lam, m2, m1, working_prec)
            if w is not None:
                w = (w[1], w[0])
            return ExistenceVerdict(True, "iv", w)
        return ExistenceVerdict(False, "none", None)
    # both traces vanish and lambda = 0
    w = _witness_commutative(lam, m1, m2, working_prec)
    return ExistenceVerdict(True, "v", w, commutative_note=True)

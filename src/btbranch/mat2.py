"""2x2 matrices over the series field, viewed as a quaternion algebra.

The standard involution on M_2 swaps the diagonal: bar([[a,b],[c,d]]) =
[[d,b],[c,a]].  Trace and determinant are the reduced trace and norm,
and q + bar(q) = tr(q), q * bar(q) = det(q) as scalars.  An element is
integral when tr and det are integral; its *entries* are allowed
negative valuation.

A matrix keeps its trace and determinant (_trace_det) in its instance
``__dict__``, where cached_property keeps values on frozen dataclasses:
==, hash, repr, fields() and asdict() never see them, and a copy without
them recomputes the same pair.  A polynomial's classification is kept by
value in defects.classify and nowhere else: q read again, or any matrix
with q's trace and determinant, gets q's QuadPoly with no reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .defects import QuadPoly, classify
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision,
                     _split_top, s_add, s_inv, s_mul, s_one, s_parse,
                     s_render, s_square, s_zero, val_ge)


class ScalarMatrix(Exception):
    """Raised where a scalar (central) matrix makes the construction collapse."""


class NonIntegral(Exception):
    """Trace, norm or pairing fell outside the integer ring."""


@dataclass(frozen=True)
class Mat2:
    a: Series
    b: Series
    c: Series
    d: Series

    @property
    def field(self):
        return self.a.field

    def __repr__(self):
        return f"Mat2({m_render(self)!r})"


def m_scalar(x: Series) -> Mat2:
    z = s_zero(x.field)
    return Mat2(x, z, z, x)


def m_add(p: Mat2, q: Mat2) -> Mat2:
    return Mat2(s_add(p.a, q.a), s_add(p.b, q.b),
                s_add(p.c, q.c), s_add(p.d, q.d))


def m_mul(p: Mat2, q: Mat2) -> Mat2:
    return Mat2(s_add(s_mul(p.a, q.a), s_mul(p.b, q.c)),
                s_add(s_mul(p.a, q.b), s_mul(p.b, q.d)),
                s_add(s_mul(p.c, q.a), s_mul(p.d, q.c)),
                s_add(s_mul(p.c, q.b), s_mul(p.d, q.d)))


def m_scale(x: Series, q: Mat2) -> Mat2:
    return Mat2(s_mul(x, q.a), s_mul(x, q.b), s_mul(x, q.c), s_mul(x, q.d))


def bar(q: Mat2) -> Mat2:
    return Mat2(q.d, q.b, q.c, q.a)


def trace(q: Mat2) -> Series:
    return s_add(q.a, q.d)


def det(q: Mat2) -> Series:
    return s_add(s_mul(q.a, q.d), s_mul(q.b, q.c))


def m_inv(q: Mat2) -> Mat2:
    return m_scale(s_inv(det(q)), bar(q))


def m_conj(g: Mat2, q: Mat2) -> Mat2:
    """g q g^-1."""
    return m_mul(m_mul(g, q), m_inv(g))


def is_scalar(q: Mat2) -> bool:
    return q.b.is_zero and q.c.is_zero and s_add(q.a, q.d).is_zero


def companion(a: Series, b: Series) -> Mat2:
    """The companion matrix of X^2 + aX + b: trace a, determinant b."""
    fld = a.field
    return Mat2(s_zero(fld), b, s_one(fld), a)


def sym_product(q1: Mat2, q2: Mat2) -> Series:
    """The pairing Lambda(q1, q2): the scalar q1 bar(q2) + q2 bar(q1).

    That sum is tr(q1 bar(q2)) times the identity, so only the trace is
    computed: a d' + b c' + c b' + d a'.
    """
    return s_add(s_add(s_mul(q1.a, q2.d), s_mul(q1.b, q2.c)),
                 s_add(s_mul(q1.c, q2.b), s_mul(q1.d, q2.a)))


def discriminant_params(a1: Series, b1: Series, a2: Series, b2: Series,
                        lam: Series) -> Series:
    """lam^2 + a1 a2 lam + a1^2 b2 + a2^2 b1.

    Invariant under lam -> lam + a1 a2, i.e. under swapping a generator
    with its conjugate.
    """
    return s_add(s_add(s_square(lam), s_mul(s_mul(a1, a2), lam)),
                 s_add(s_mul(s_square(a1), b2), s_mul(s_square(a2), b1)))


@dataclass(frozen=True)
class Datum:
    """The pairing lambda and the two classified minimal polynomials: what
    the paper's results about a pair of generators are functions of.  It
    holds one working precision; m1 and m2 classified at two raise."""

    lam: Series
    m1: QuadPoly
    m2: QuadPoly

    def __post_init__(self):
        if self.m1.prec != self.m2.prec:
            raise ValueError(f"m1 and m2 were classified at {self.m1.prec} "
                             f"and {self.m2.prec}; a datum has one precision")

    @property
    def prec(self) -> int:
        return self.m1.prec

    @property
    def disc(self) -> Series:
        """Delta, computed on first read and kept, like _trace_det's pair."""
        delta = self.__dict__.get("_disc")
        if delta is None:
            m1, m2 = self.m1, self.m2
            delta = self.__dict__["_disc"] = discriminant_params(
                m1.a, m1.b, m2.a, m2.b, self.lam)
        return delta

    def checked_disc(self) -> Series:
        """Delta, refusing one that is zero only as far as it is known."""
        delta = self.disc
        if delta.looks_zero and not delta.is_exact:
            raise UndeterminedAtPrecision(
                "discriminant vanishes to precision only")
        return delta


def _trace_det(q: Mat2) -> tuple[Series, Series]:
    """(tr(q), det(q)), computed once and kept on q."""
    memo = q.__dict__
    coeffs = memo.get("_trace_det")
    if coeffs is None:
        coeffs = memo["_trace_det"] = trace(q), det(q)
    return coeffs


def min_poly(q: Mat2, working_prec: int = DEFAULT_PREC) -> QuadPoly:
    """X^2 + tr(q) X + det(q), classified.

    For non-scalar q this is the minimal polynomial; a scalar s gives
    the square of X + s and classifies as reducible inseparable.  A
    second call at the same precision finds classify's answer (see the
    module docstring); a refusal is not kept and is raised again.
    """
    return classify(*_trace_det(q), working_prec)


@dataclass(frozen=True)
class PairConfig:
    """A validated generating pair: non-scalar, integral, and its datum."""

    q1: Mat2
    q2: Mat2
    datum: Datum


def make_pair(q1: Mat2, q2: Mat2,
              working_prec: int = DEFAULT_PREC) -> PairConfig:
    """Validate and classify a generating pair.

    Raises ScalarMatrix or NonIntegral for the first generator before
    looking at the second, and classifies only once both pass.  The
    classifications are kept by value in classify, so branch_shape at
    the same working_prec finds them.
    """
    for i, q in ((1, q1), (2, q2)):
        if is_scalar(q):
            raise ScalarMatrix(f"generator {i} is scalar")
        for name, x in zip(("trace", "determinant"), _trace_det(q)):
            if not val_ge(x, 0):
                raise NonIntegral(f"{name} of generator {i} has negative valuation")
    # the pairing itself may sit outside the integer ring (two foliages
    # with different ends can be arbitrarily far apart), so only the
    # generators are checked
    return PairConfig(q1, q2, Datum(sym_product(q1, q2),
                                    min_poly(q1, working_prec),
                                    min_poly(q2, working_prec)))


# -- grammar --------------------------------------------------------

def m_render(q: Mat2) -> str:
    return (f"[[{s_render(q.a)},{s_render(q.b)}],"
            f"[{s_render(q.c)},{s_render(q.d)}]]")


def _strip_brackets(text: str) -> str:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"expected [...], got {text!r}")
    return t[1:-1]


def m_parse(cfg, text: str) -> Mat2:
    rows = list(_split_top(_strip_brackets(text), ","))
    if len(rows) != 2:
        raise ValueError(f"expected 2 rows, got {len(rows)}")
    entries = []
    for row in rows:
        cells = list(_split_top(_strip_brackets(row), ","))
        if len(cells) != 2:
            raise ValueError(f"expected 2 entries per row, got {len(cells)}")
        entries += [s_parse(cfg, cell) for cell in cells]
    return Mat2(*entries)

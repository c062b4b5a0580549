"""Artin-Schreier and square defects, and the classification of X^2+aX+b.

as_defect repeatedly absorbs the leading term of a series into the image
of p(x) = x^2 + x, one lane of its packed ints at a time; quad_defect
splits it as xi^2 + t eta^2 in one step.  What is left pins down how far
the input sits from that image.  The distance is the fractional ideal
(t^v) of the integer ring, recorded as its valuation v: an int, or inf
for the zero ideal, as s_val gives inf for the zero series.  The
absorbed part is returned as a witness.

The classification is also the only solver: a reducible polynomial's
roots come off the defect its classification computed (QuadPoly.roots),
so a caller holding the classification never divides b by a^2 or
reduces again.  A matrix's fixed points are these roots moved by a
Moebius map (geometry.branch_shape), not the roots of a second equation.

A polynomial is classified once per process, here and nowhere else.
The classification is a function of (a, b, working_prec) by value, so
classify keeps the last CLASSIFY_MEMO_SIZE of them: a matrix read again,
or one with another's trace and determinant (a conjugate by an exactly
invertible matrix, a generator of another pair with the same datum),
finds its polynomial classified.
A refusal (UndeterminedAtPrecision) is never kept: it is raised again
on every call.  A QuadPoly records the precision it was classified at,
and a split's roots are kept on it, summed once per polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import inf

from .gf2 import ff_artin_schreier_root, ff_sqrt
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, _make,
                     _square_bits, s_add, s_div, s_mul, s_split, s_square)


def render_ideal(v: int | float) -> str:
    """The ideal of valuation v as printed: (0) for v = inf, O for v = 0,
    (t^v) otherwise."""
    if v == inf:
        return "(0)"
    return "O" if v == 0 else f"(t^{v})"


@dataclass(frozen=True)
class DefectResult:
    """One defect of a: the valuation of its ideal (an int, or inf for
    (0)), the witness, and reduced = a + p(witness) for the map p the
    defect is taken against."""

    ideal: int | float
    witness: Series
    reduced: Series


def as_defect(a: Series) -> DefectResult:
    """Defect of a against the additive map p(x) = x^2 + x.

    Returns (0) when a = p(r) for some r in the field, the full integer
    ring when the obstruction is the residue trace, and (t^(-2s+1)) with
    s > 0 in the ramified case.  The witness h satisfies
    reduced = a + h^2 + h, with the reduced series of valuation >= 0.

    A leading term of odd negative exponent settles the answer no matter
    what the unknown tail is, so truncated input is often enough.

    The reduction runs on the packed lanes of a, lane 0 at t^lead: the
    lowest nonzero lane is read, cleared and, for u t^(-2s), replaced by
    sqrt(u) t^(-s) where that exponent is below prec.  The witness
    collects its terms on the same lanes, and the witness and the
    reduced part each become one Series at the end.
    """
    fld, bits, lead, prec = a.field, a.bits, a.lead, a.prec
    w = fld.tau
    mask = (1 << w) - 1
    top = inf if prec is None else (prec - lead) * w  # first unknown bit
    x, h = bits, 0
    while True:
        if not x:
            if prec is not None and prec < 1:
                raise UndeterminedAtPrecision(
                    f"series vanishes to precision {prec}; "
                    "defect needs it mod t")
            ideal = inf
            break
        i = ((x & -x).bit_length() - 1) // w * w  # the lowest lane's bit
        v = lead + i // w
        if v > 0:
            ideal = inf
            break
        u = x >> i & mask
        if v == 0:
            c = ff_artin_schreier_root(fld, u)
            if c is None:  # u has trace 1
                ideal = 0
                break
            h |= c << i
            x ^= u << i
            continue
        if v % 2:
            ideal = v
            break
        # v = -2s: absorb u*t^(-2s) as p(sqrt(u)*t^(-s)), which costs a
        # new term sqrt(u)*t^(-s) but strictly raises the valuation
        r = ff_sqrt(fld, u)
        j = (v // 2 - lead) * w
        h |= r << j
        x ^= u << i
        if j < top:
            x ^= r << j
    reduced = a if x == bits else _make(fld, lead, x, prec)
    return DefectResult(ideal, _make(fld, lead, h, None), reduced)


def quad_defect(a: Series) -> DefectResult:
    """Defect of a against squaring: distance from the set of squares.

    Split a = xi^2 + t eta^2: xi is the witness, and what survives in
    a + xi^2 is t eta^2, the odd part.  The ideal is (t^(2 lead(eta)+1)),
    the smallest odd exponent in the support, or (0) when a is a perfect
    square.
    """
    xi, eta = s_split(a)
    reduced = s_add(a, s_square(xi))
    if not eta.looks_zero:
        return DefectResult(2 * eta.lead + 1, xi, reduced)
    if a.is_exact:
        return DefectResult(inf, xi, reduced)
    raise UndeterminedAtPrecision(
        f"no odd-exponent term below precision {a.prec}; square defect open")


# -- classification of quadratic polynomials ------------------------

REDUCIBLE_SEP = "reducible_sep"
UNRAMIFIED_SEP = "unramified_sep"
RAMIFIED_SEP = "ramified_sep"
REDUCIBLE_INSEP = "reducible_insep"
RAMIFIED_INSEP = "ramified_insep"

KINDS = (REDUCIBLE_SEP, UNRAMIFIED_SEP, RAMIFIED_SEP,
         REDUCIBLE_INSEP, RAMIFIED_INSEP)

_CELL = {
    REDUCIBLE_SEP: "A^s",
    UNRAMIFIED_SEP: "A^s",
    RAMIFIED_SEP: "B^s",
    REDUCIBLE_INSEP: "A^i",
    RAMIFIED_INSEP: "B^i",
}


@dataclass(frozen=True)
class QuadPoly:
    """X^2 + aX + b together with its classification.

    ``t`` is the ramification jump: defined for the two ramified kinds
    (positive for ramified_sep, >= 0 for ramified_insep on integral
    input) and None otherwise.  ``defect`` holds the as/quad defect
    computation the classification came from, whose ideal valuation
    decides the kind: inf splits, 0 is unramified, and the jump is read
    off an odd one.  ``prec`` is the working precision classify used;
    the roots are summed to it.
    """

    a: Series
    b: Series
    kind: str
    t: int | None
    defect: DefectResult
    prec: int

    @property
    def cell(self) -> str:
        """Coarse class: A^s, B^s, A^i or B^i."""
        return _CELL[self.kind]

    @property
    def separable(self) -> bool:
        return self.kind in (REDUCIBLE_SEP, UNRAMIFIED_SEP, RAMIFIED_SEP)

    @property
    def reducible(self) -> bool:
        return self.kind in (REDUCIBLE_SEP, REDUCIBLE_INSEP)

    @cached_property
    def roots(self) -> tuple[Series, Series] | None:
        """Both roots, or None if irreducible, read off the defect: a r
        and a r + a with r = as_root(defect, prec) solving Z^2 + Z = b/a^2
        when separable, the double root xi of b = xi^2 when not.  Not a
        field: ==, hash and repr never see it."""
        if self.kind == REDUCIBLE_SEP:
            y0 = s_mul(self.a, as_root(self.defect, self.prec))
            return y0, s_add(y0, self.a)
        if self.kind == REDUCIBLE_INSEP:
            return self.defect.witness, self.defect.witness
        return None


#: how many classified polynomials classify keeps, least recently used
#: first out; one self-test of 500 instances meets about 230
CLASSIFY_MEMO_SIZE = 4096


def classify(a: Series, b: Series, working_prec: int = DEFAULT_PREC) -> QuadPoly:
    """Classify X^2 + aX + b over the Laurent series field.

    Separable (a != 0) splits by the defect of b/a^2; inseparable by the
    square defect of b.  Inexact a that merely looks zero cannot be
    classified and raises.

    Equal (a, b, working_prec) share one QuadPoly, whose prec is
    working_prec (see the module docstring).  A call that raises keeps
    nothing.
    """
    return _classify(a, b, working_prec)


@lru_cache(maxsize=CLASSIFY_MEMO_SIZE)
def _classify(a: Series, b: Series, working_prec: int) -> QuadPoly:
    """classify's work, kept by value on its three positional arguments."""
    if a.looks_zero:
        if not a.is_exact:
            raise UndeterminedAtPrecision("linear coefficient 0 to precision only")
        d = quad_defect(b)
        kind, t = ((REDUCIBLE_INSEP, None) if d.ideal == inf
                   else (RAMIFIED_INSEP, (d.ideal - 1) // 2))
    else:
        d = as_defect(s_div(b, s_square(a), working_prec))
        kind, t = ((REDUCIBLE_SEP, None) if d.ideal == inf
                   else (UNRAMIFIED_SEP, None) if d.ideal == 0
                   else (RAMIFIED_SEP, (1 - d.ideal) // 2))
    return QuadPoly(a, b, kind, t, d, working_prec)


# -- root finding ---------------------------------------------------

def as_root(d: DefectResult,
            working_prec: int = DEFAULT_PREC) -> Series | None:
    """The root of r^2 + r = a that the defect d = as_defect(a) leads to,
    or None when there is none in the field.

    The defect reduction leaves a remainder of positive valuation, whose
    small root is rem + rem^2 + rem^4 + ..., summed below working_prec;
    the witness shifts it back.  Roots come in pairs r, r+1; this
    returns the one whose reduced part is topologically small.

    The tail is summed on packed lanes laid out from t^0: each term is
    the Frobenius of the one before, masked below the precision of the
    sum, min(prec(rem), working_prec), and XORed in.  Exponents only
    grow under squaring, so nothing masked off could come back below it.
    """
    if d.ideal != inf:
        return None
    rem = d.reduced
    if rem.is_zero:
        return d.witness
    fld = rem.field
    prec = working_prec if rem.prec is None else min(rem.prec, working_prec)
    mask = (1 << prec * fld.tau) - 1
    term = rem.bits << rem.lead * fld.tau & mask
    r = 0
    while term:
        r ^= term
        term = _square_bits(fld, term) & mask
    return s_add(d.witness, _make(fld, 0, r, prec))


def as_argument(d: DefectResult) -> Series:
    """The series a that d = as_defect(a) reduced: reduced + h^2 + h.

    Bit for bit a: the reduction added h^2 + h below prec(a) only, and
    adding it back is masked at the same precision.
    """
    h = d.witness
    return s_add(d.reduced, s_add(s_square(h), h))

"""Laurent series over F_(2^tau): the local field F_(2^tau)((t)).

A Series is an immutable, always-canonical window on a Laurent series.
``prec`` is the exponent up to which the series is known: coefficients at
exponents < prec are exact, everything at >= prec is unknown.  ``prec is
None`` means the series is known exactly (it *is* a Laurent polynomial).
That one field is the single source of truth for exactness; there is no
separate flag to drift out of sync.

Two zeros therefore exist and must not be conflated: the exact zero
(coeffs empty, prec None) and "zero as far as we can see" (coeffs empty,
prec = N).  Valuations and divisions on the latter raise
UndeterminedAtPrecision instead of guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf

from .gf2 import FieldConfig, ff_inv

#: relative precision used when inverting a non-monomial series
DEFAULT_PREC = 64


class UndeterminedAtPrecision(Exception):
    """The requested quantity is not pinned down by the known coefficients."""


@dataclass(frozen=True)
class Series:
    field: FieldConfig
    lead: int
    coeffs: tuple[int, ...]
    prec: int | None = None

    def __post_init__(self):
        lead, coeffs, prec = self.lead, tuple(self.coeffs), self.prec
        lo, hi = 0, len(coeffs)
        if prec is not None and hi > prec - lead:
            hi = max(prec - lead, 0)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            lead, coeffs = 0, ()
        else:
            if lo or hi < len(coeffs):
                lead, coeffs = lead + lo, coeffs[lo:hi]
            order = self.field.order
            if min(coeffs) < 0 or max(coeffs) >= order:
                c = next(c for c in coeffs if not 0 <= c < order)
                raise ValueError(
                    f"coefficient {c} outside F_(2^{self.field.tau})")
        if lead != self.lead:
            object.__setattr__(self, "lead", lead)
        if coeffs is not self.coeffs:
            object.__setattr__(self, "coeffs", coeffs)

    # -- predicates -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    @property
    def is_zero(self) -> bool:
        """Exactly zero (not merely zero to the known precision)."""
        return not self.coeffs and self.prec is None

    @property
    def looks_zero(self) -> bool:
        """No nonzero coefficient is visible; may still be exact zero."""
        return not self.coeffs

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.lead + i, c

    def coeff(self, e: int) -> int:
        if self.prec is not None and e >= self.prec:
            raise UndeterminedAtPrecision(f"coefficient of t^{e} unknown (prec {self.prec})")
        if self.lead <= e < self.lead + len(self.coeffs):
            return self.coeffs[e - self.lead]
        return 0

    def __repr__(self):
        return f"Series({s_render(self)!r})"


# -- construction ---------------------------------------------------

def s_zero(field: FieldConfig) -> Series:
    return Series(field, 0, (), None)


def s_one(field: FieldConfig) -> Series:
    return Series(field, 0, (1,), None)


def s_monomial(field: FieldConfig, e: int, c: int = 1) -> Series:
    return Series(field, e, (c,), None)


def s_from_terms(field: FieldConfig, terms: dict[int, int],
                 prec: int | None = None) -> Series:
    if not terms:
        return Series(field, 0, (), prec)
    lo = min(terms)
    hi = max(terms)
    coeffs = [terms.get(e, 0) for e in range(lo, hi + 1)]
    return Series(field, lo, tuple(coeffs), prec)


# -- valuation ------------------------------------------------------

def s_val(a: Series):
    """t-adic valuation; inf for the exact zero.

    An inexact zero has no well-defined valuation, only the bound
    val >= prec, so asking for the number is an error.
    """
    if a.coeffs:
        return a.lead
    if a.prec is None:
        return inf
    raise UndeterminedAtPrecision(f"series is 0 mod t^{a.prec}; valuation unknown")


def val_ge(a: Series, k: int) -> bool:
    """Certified comparison val(a) >= k; raises when the data cannot decide."""
    if a.coeffs:
        return a.lead >= k
    if a.prec is None or a.prec >= k:
        return True
    raise UndeterminedAtPrecision(f"cannot certify val >= {k} from prec {a.prec}")


def _val_lower_bound(a: Series):
    if a.coeffs:
        return a.lead
    return inf if a.prec is None else a.prec


# -- arithmetic -----------------------------------------------------

def _min_prec(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


def s_add(a: Series, b: Series) -> Series:
    if a.field != b.field:
        raise ValueError("mixed residue fields")
    prec = _min_prec(a.prec, b.prec)
    if not a.coeffs and not b.coeffs:
        return Series(a.field, 0, (), prec)
    lo = min(a.lead, b.lead)
    hi = max(a.lead + len(a.coeffs), b.lead + len(b.coeffs))
    coeffs = [0] * (hi - lo)
    for i, c in enumerate(a.coeffs):
        coeffs[a.lead - lo + i] ^= c
    for i, c in enumerate(b.coeffs):
        coeffs[b.lead - lo + i] ^= c
    return Series(a.field, lo, tuple(coeffs), prec)


def s_mul(a: Series, b: Series) -> Series:
    if a.field != b.field:
        raise ValueError("mixed residue fields")
    if a.is_zero or b.is_zero:
        return s_zero(a.field)
    pa = None if a.prec is None else a.prec + _val_lower_bound(b)
    pb = None if b.prec is None else b.prec + _val_lower_bound(a)
    prec = _min_prec(None if pa is None else (None if pa == inf else pa),
                     None if pb is None else (None if pb == inf else pb))
    fld = a.field
    if len(b.coeffs) == 1 and len(a.coeffs) != 1:
        a, b = b, a
    log, exp = fld.tables
    if len(a.coeffs) == 1:
        c = a.coeffs[0]
        if c == 1:
            scaled = b.coeffs
        else:
            lc = log[c]
            scaled = tuple([exp[lc + log[y]] if y else 0 for y in b.coeffs])
        return Series(fld, a.lead + b.lead, scaled, prec)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    logs_b = [(j, log[y]) for j, y in enumerate(b.coeffs) if y]
    for i, x in enumerate(a.coeffs):
        if x:
            lx = log[x]
            for j, ly in logs_b:
                out[i + j] ^= exp[lx + ly]
    return Series(fld, a.lead + b.lead, tuple(out), prec)


def s_inv(a: Series, working_prec: int = DEFAULT_PREC) -> Series:
    """Multiplicative inverse.

    The inverse of a monomial is exact.  Otherwise the result carries
    ``working_prec`` terms (or fewer, if the input itself knows fewer).
    """
    if not a.coeffs:
        if a.prec is None:
            raise ZeroDivisionError("inverse of the zero series")
        raise UndeterminedAtPrecision("inverse of a series that is 0 to known precision")
    if len(a.coeffs) == 1 and a.prec is None:
        return s_monomial(a.field, -a.lead, ff_inv(a.field, a.coeffs[0]))
    rel = working_prec if a.prec is None else min(a.prec - a.lead, working_prec)
    fld = a.field
    log, exp = fld.tables
    u = a.coeffs  # unit part, u[0] != 0
    log_c0 = log[ff_inv(fld, u[0])]
    logs_u = [(i, log[c]) for i, c in enumerate(u[1:rel], 1) if c]
    out = [0] * rel
    out[0] = exp[log_c0]
    for k in range(1, rel):
        acc = 0
        for i, li in logs_u:
            if i > k:
                break
            y = out[k - i]
            if y:
                acc ^= exp[li + log[y]]
        if acc:
            out[k] = exp[log_c0 + log[acc]]
    return Series(fld, -a.lead, tuple(out), -a.lead + rel)


def s_div(a: Series, b: Series, working_prec: int = DEFAULT_PREC) -> Series:
    return s_mul(a, s_inv(b, working_prec))


def s_truncate(a: Series, n: int) -> Series:
    """Forget everything at exponent >= n; the result has prec = n at most."""
    return Series(a.field, a.lead, a.coeffs, _min_prec(a.prec, n))


def s_square(a: Series) -> Series:
    """The Frobenius a -> a^2, which is additive in characteristic 2.

    The cross terms cancel, so each term c t^e squares to c^2 t^(2e) on
    its own, and a series known mod t^N has its square known mod t^(2N).
    """
    log, exp = a.field.tables
    out = [0] * (2 * len(a.coeffs))
    out[::2] = [exp[2 * log[c]] if c else 0 for c in a.coeffs]
    return Series(a.field, 2 * a.lead, tuple(out),
                  None if a.prec is None else 2 * a.prec)


def s_split(a: Series) -> tuple[Series, Series]:
    """The unique xi, eta with a = xi^2 + t eta^2.

    Even-exponent terms c t^(2k) give xi its term sqrt(c) t^k, odd ones
    c t^(2k+1) give eta its term sqrt(c) t^k.  Known mod t^N, a pins xi
    down mod t^ceil(N/2) and eta mod t^floor(N/2).
    """
    fld, lead, cs = a.field, a.lead, a.coeffs
    log, exp = fld.tables
    shift, units = fld.tau - 1, fld.order - 1  # sqrt(c) = c^(2^(tau-1))

    def half(start, prec):
        roots = [exp[(log[c] << shift) % units] if c else 0
                 for c in cs[start::2]]
        return Series(fld, (lead + start) // 2, tuple(roots), prec)

    even = lead % 2  # index of the first even-exponent coefficient
    if a.prec is None:
        return half(even, None), half(1 - even, None)
    return half(even, (a.prec + 1) // 2), half(1 - even, a.prec // 2)


def s_sqrt(a: Series) -> Series:
    """The unique square root in characteristic 2.

    Squares are exactly the series supported on even exponents; a visible
    odd-exponent coefficient means there is no root and raises ValueError.
    """
    xi, eta = s_split(a)
    if eta.coeffs:
        raise ValueError(
            f"not a square: odd-exponent term at t^{2 * eta.lead + 1}")
    return xi


# -- grammar --------------------------------------------------------
#
#   series  := term ('+' term)*  [ '(mod t^N)' ]
#   term    := coeff | coeff '*' tpow | tpow
#   tpow    := 't' | 't^' int
#   coeff   := gmono | '(' gmono ('+' gmono)* ')'
#   gmono   := '0' | '1' | 'g' | 'g^' int
#
# Renders with ascending exponents; pi is written t throughout.

_MOD_RE = re.compile(r"\(\s*mod\s+t(?:\^(-?\d+))?\s*\)\s*$")
_TPOW_RE = re.compile(r"^t(?:\^(-?\d+))?$")
_GMONO_RE = re.compile(r"^(?:(0|1)|g(?:\^(\d+))?)$")


def _render_gpoly(cfg: FieldConfig, c: int) -> str:
    bits = [k for k in range(cfg.tau - 1, -1, -1) if c >> k & 1]
    parts = []
    for k in bits:
        parts.append("1" if k == 0 else "g" if k == 1 else f"g^{k}")
    return "+".join(parts)


def _render_term(cfg: FieldConfig, e: int, c: int) -> str:
    gp = _render_gpoly(cfg, c)
    if "+" in gp:
        gp = f"({gp})"
    if e == 0:
        return gp
    t = "t" if e == 1 else f"t^{e}"
    return t if gp == "1" else f"{gp}*{t}"


def s_render(a: Series) -> str:
    body = " + ".join(_render_term(a.field, e, c) for e, c in a.terms()) or "0"
    if a.prec is None:
        return body
    return f"{body} (mod t^{a.prec})"


def _parse_gpoly(cfg: FieldConfig, text: str) -> int:
    acc = 0
    for piece in text.split("+"):
        m = _GMONO_RE.match(piece.strip())
        if not m:
            raise ValueError(f"bad coefficient monomial {piece.strip()!r}")
        if m.group(1) is not None:
            acc ^= int(m.group(1))
        else:
            k = 1 if m.group(2) is None else int(m.group(2))
            if k >= cfg.tau and not (cfg.tau == 1 and k == 0):
                raise ValueError(f"g^{k} is not reduced in F_(2^{cfg.tau})")
            acc ^= 1 << k
    return acc


def _split_top(text: str, sep: str):
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            yield text[start:i]
            start = i + 1
    yield text[start:]


def s_parse(cfg: FieldConfig, text: str) -> Series:
    src = text.strip()
    prec = None
    m = _MOD_RE.search(src)
    if m:
        prec = int(m.group(1)) if m.group(1) is not None else 1
        src = src[:m.start()].strip()
    if not src:
        raise ValueError("empty series expression")
    terms: dict[int, int] = {}
    for raw in _split_top(src, "+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        c, e = 1, 0
        saw_coeff = saw_t = False
        for part in _split_top(term, "*"):
            p = part.strip()
            tm = _TPOW_RE.match(p)
            if tm:
                if saw_t:
                    raise ValueError(f"two t-powers in one term: {term!r}")
                saw_t = True
                e += 1 if tm.group(1) is None else int(tm.group(1))
                continue
            if saw_coeff:
                raise ValueError(f"two coefficients in one term: {term!r}")
            saw_coeff = True
            inner = p[1:-1] if p.startswith("(") and p.endswith(")") else p
            c = _parse_gpoly(cfg, inner)
        terms[e] = terms.get(e, 0) ^ c
    return s_from_terms(cfg, terms, prec)


def s_random(cfg: FieldConfig, rng, lo: int, hi: int, *,
             nonzero: bool = False) -> Series:
    """Random exact series supported on exponents lo..hi inclusive."""
    while True:
        terms = {e: rng.randrange(cfg.order) for e in range(lo, hi + 1)}
        a = s_from_terms(cfg, terms, None)
        if a.coeffs or not nonzero:
            return a

"""Laurent series over F_(2^tau): the local field F_(2^tau)((t)).

A Series is an immutable, always-canonical window on a Laurent series.
``prec`` is the exponent up to which the series is known: coefficients at
exponents < prec are exact, everything at >= prec is unknown.  ``prec is
None`` means the series is known exactly (it *is* a Laurent polynomial).
That one field is the single source of truth for exactness; there is no
separate flag to drift out of sync.

The coefficients live in one int, ``bits``, in tau-bit lanes: lane i
(bits i*tau .. (i+1)*tau - 1) holds the coefficient of t^(lead+i).  So
addition is one XOR of the aligned ints, the valuation is the lowest set
bit divided by tau, truncation is a mask, and at tau = 1 a product is a
carry-less multiply.  The canonical form: the lowest lane is nonzero, no
lane sits at or above prec - lead, and the exact zero has lead 0.  The
tuple ``coeffs`` is derived from ``bits`` on demand.

Two zeros therefore exist and must not be conflated: the exact zero
(bits 0, prec None) and "zero as far as we can see" (bits 0, prec = N).
Valuations and divisions on the latter raise UndeterminedAtPrecision
instead of guessing.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from math import inf

from .gf2 import FieldConfig, ff_inv

#: relative precision used when inverting a non-monomial series
DEFAULT_PREC = 64


class UndeterminedAtPrecision(Exception):
    """The requested quantity is not pinned down by the known coefficients."""


class Series:
    """Series(field, lead, coeffs, prec): coeffs[i] is the coefficient of
    t^(lead+i), an int in 0 .. 2^tau - 1.

    Immutable.  Stored canonically as the packed lanes ``bits`` (see the
    module docstring); ``coeffs`` is read back from them.
    """

    __slots__ = ("field", "lead", "bits", "prec")

    def __init__(self, field: FieldConfig, lead: int, coeffs, prec=None):
        coeffs = tuple(coeffs)
        # only the coefficients the precision keeps are range-checked
        if prec is not None and len(coeffs) > prec - lead:
            coeffs = coeffs[:max(prec - lead, 0)]
        bits = 0
        if coeffs:
            order = field.order
            if min(coeffs) < 0 or max(coeffs) >= order:
                c = next(c for c in coeffs if not 0 <= c < order)
                raise ValueError(f"coefficient {c} outside F_(2^{field.tau})")
            bits = _pack(coeffs, field.tau)
        _set_field(self, field)
        _set_lead(self, lead)
        _set_bits(self, bits)
        _set_prec(self, prec)
        self.__post_init__()

    def __post_init__(self):
        """Bring (lead, bits) to the canonical form; every construction
        runs this.

        An exact series whose lowest bit is set is canonical already:
        there is nothing to mask and its lowest lane is nonzero.  Such a
        series returns at once.
        """
        bits, prec = self.bits, self.prec
        if bits & 1 and prec is None:
            return
        lead = self.lead
        w = self.field.tau
        if prec is not None and bits:
            n = (prec - lead) * w
            if n <= 0:
                bits = 0
            elif bits >> n:
                bits &= (1 << n) - 1
        if not bits:
            lead = 0
        elif not bits & ((1 << w) - 1):
            k = ((bits & -bits).bit_length() - 1) // w
            bits >>= k * w
            lead += k
        if lead != self.lead:
            _set_lead(self, lead)
        if bits != self.bits:
            _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Series, (self.field, self.lead, self.coeffs, self.prec)

    def __eq__(self, other):
        if other.__class__ is not Series:
            return NotImplemented
        return (self.bits == other.bits and self.lead == other.lead
                and self.prec == other.prec
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        # the modulus fixes the field, and hashes with no Python-level call
        return hash((self.field.modulus, self.lead, self.bits, self.prec))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_unpack(self.bits, self.field.tau))

    # -- predicates -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    @property
    def is_zero(self) -> bool:
        """Exactly zero (not merely zero to the known precision)."""
        return not self.bits and self.prec is None

    @property
    def looks_zero(self) -> bool:
        """No nonzero coefficient is visible; may still be exact zero."""
        return not self.bits

    def terms(self):
        w = self.field.tau
        mask = (1 << w) - 1
        e, bits = self.lead, self.bits
        while bits:
            c = bits & mask
            if c:
                yield e, c
            bits >>= w
            e += 1

    def coeff(self, e: int) -> int:
        if self.prec is not None and e >= self.prec:
            raise UndeterminedAtPrecision(f"coefficient of t^{e} unknown (prec {self.prec})")
        if e < self.lead:
            return 0
        w = self.field.tau
        return self.bits >> (e - self.lead) * w & ((1 << w) - 1)

    def __repr__(self):
        return f"Series({s_render(self)!r})"


_set_field = Series.field.__set__
_set_lead = Series.lead.__set__
_set_bits = Series.bits.__set__
_set_prec = Series.prec.__set__
_new = object.__new__


def _make(fld: FieldConfig, lead: int, bits: int, prec) -> Series:
    """A Series from packed lanes; ``bits`` need not be canonical."""
    s = _new(Series)
    _set_field(s, fld)
    _set_lead(s, lead)
    _set_bits(s, bits)
    _set_prec(s, prec)
    s.__post_init__()
    return s


# -- lanes ----------------------------------------------------------

def _pack(lanes, w: int) -> int:
    bits = 0
    for c in reversed(lanes):
        bits = bits << w | c
    return bits


def _unpack(bits: int, w: int) -> list[int]:
    mask = (1 << w) - 1
    lanes = []
    while bits:
        lanes.append(bits & mask)
        bits >>= w
    return lanes


def _clmul(x: int, y: int) -> int:
    """Carry-less product: XOR of y << i over the set bits i of x."""
    if x.bit_count() > y.bit_count():
        x, y = y, x
    acc = 0
    while x:
        low = x & -x
        acc ^= y << low.bit_length() - 1
        x ^= low
    return acc


def _lane_mul(fld: FieldConfig, x: int, y: int) -> int:
    """The product of two packed series at tau >= 2, by bit planes.

    x is the sum over k of g^k X_k, where X_k holds bit k of every lane
    of x at that lane's lowest bit, so x y is the XOR over k of the
    carry-less X_k (g^k y).  g^k y is g^(k-1) y times g lane by lane: a
    shift of every lane, with each lane that overflows reduced by the
    modulus.
    """
    w = fld.tau
    ones = _ones(max(x.bit_length(), y.bit_length()), w)
    tops = ones << w - 1
    low = fld.modulus ^ 1 << w  # g^tau as an element
    acc = 0
    for k in range(w):
        xk = x >> k & ones
        if xk:
            acc ^= _clmul(xk, y)
        top = y & tops
        y = (y ^ top) << 1 ^ (top >> w - 1) * low
    return acc


def _ones(nbits: int, stride: int) -> int:
    """A 1 at every multiple of stride below nbits (rounded up)."""
    n = -(-nbits // stride) * stride
    return ((1 << n) - 1) // ((1 << stride) - 1)


#: _SPREAD[b] moves bit i of the byte b to bit 2i
_SPREAD = tuple(sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256))


def _inv8(u: int) -> int:
    """The inverse of the odd F_2[t] polynomial u mod t^8, by three
    Newton steps x -> u x^2 from 1."""
    x = 1
    for _ in range(3):
        x = _clmul(_SPREAD[x], u) & 0xFF
    return x


#: _INV8[i] is the inverse of 2i + 1 mod t^8 in F_2[t]: where s_inv's
#: Newton iteration at tau = 1 starts
_INV8 = tuple(_inv8(u) for u in range(1, 256, 2))


def _square_bits(fld: FieldConfig, x: int) -> int:
    """The lanes of the Frobenius x^2: lane i of x, squared, in lane 2i.

    Squaring over F_2 spreads bits apart, bit i to bit 2i, so lane i of
    x becomes the square of its polynomial in lanes 2i, 2i+1; each such
    pair is then reduced by the modulus in place, top bit first.  A
    byte is spread by table; a wider x by reading its binary digits as
    base-4 digits, one C call (bases that are powers of 2 are exempt
    from the int-string digit limit).
    """
    out = _SPREAD[x] if x < 256 else int(bin(x)[2:], 4)
    w = fld.tau
    if w > 1 and out:
        ones = _ones(out.bit_length(), 2 * w)
        for d in range(2 * w - 2, w - 1, -1):
            out ^= (out >> d & ones) * (fld.modulus << d - w)
    return out


# -- construction ---------------------------------------------------

def s_zero(field: FieldConfig) -> Series:
    return _make(field, 0, 0, None)


def s_one(field: FieldConfig) -> Series:
    return _make(field, 0, 1, None)


def s_monomial(field: FieldConfig, e: int, c: int = 1) -> Series:
    return Series(field, e, (c,), None)


def s_from_terms(field: FieldConfig, terms: dict[int, int],
                 prec: int | None = None) -> Series:
    if not terms:
        return _make(field, 0, 0, prec)
    lo = min(terms)
    hi = max(terms)
    coeffs = [terms.get(e, 0) for e in range(lo, hi + 1)]
    return Series(field, lo, coeffs, prec)


# -- valuation ------------------------------------------------------

def s_val(a: Series):
    """t-adic valuation; inf for the exact zero.

    An inexact zero has no well-defined valuation, only the bound
    val >= prec, so asking for the number is an error.
    """
    if a.bits:
        return a.lead
    if a.prec is None:
        return inf
    raise UndeterminedAtPrecision(f"series is 0 mod t^{a.prec}; valuation unknown")


def val_ge(a: Series, k: int) -> bool:
    """Certified comparison val(a) >= k; raises when the data cannot decide."""
    if a.bits:
        return a.lead >= k
    if a.prec is None or a.prec >= k:
        return True
    raise UndeterminedAtPrecision(f"cannot certify val >= {k} from prec {a.prec}")


# -- arithmetic -----------------------------------------------------

def _min_prec(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


def s_add(a: Series, b: Series) -> Series:
    fld = a.field
    if b.field is not fld and b.field != fld:
        raise ValueError("mixed residue fields")
    pa, pb = a.prec, b.prec
    x, y = a.bits, b.bits
    # a zero operand that does not lower the precision leaves the other
    if not y and (pb is None or pa is not None and pa <= pb):
        return a
    if not x and (pa is None or pb is not None and pb <= pa):
        return b
    prec = pa if pb is None else pb if pa is None else min(pa, pb)
    la, lb = a.lead, b.lead
    # align on the lower lead; a zero operand has none
    if not y or x and la <= lb:
        return _make(fld, la, x ^ y << (lb - la) * fld.tau if y else x, prec)
    return _make(fld, lb, y ^ x << (la - lb) * fld.tau if x else y, prec)


def s_mul(a: Series, b: Series) -> Series:
    fld = a.field
    if b.field is not fld and b.field != fld:
        raise ValueError("mixed residue fields")
    x, y = a.bits, b.bits
    pa, pb = a.prec, b.prec
    # the exact 1 leaves the other operand as it is, precision and all
    if x == 1 and pa is None and not a.lead:
        return b
    if y == 1 and pb is None and not b.lead:
        return a
    if not x and pa is None or not y and pb is None:
        return _make(fld, 0, 0, None)
    # a known mod t^pa times b of valuation >= vb is known mod t^(pa+vb)
    va = a.lead if x else pa
    vb = b.lead if y else pb
    if pa is None:
        prec = None if pb is None else pb + va
    else:
        prec = pa + vb if pb is None else min(pa + vb, pb + va)
    if not x or not y:
        return _make(fld, 0, 0, prec)
    w = fld.tau
    if prec is not None:
        # lanes at or above prec - lead of either factor reach only
        # lanes of the product that are unknown anyway
        n = (prec - va - vb) * w
        if x >> n:
            x &= (1 << n) - 1
        if y >> n:
            y &= (1 << n) - 1
    if w == 1:
        bits = _clmul(x, y)
    elif not (x | y) >> w:  # two monomials: one residue-field product
        log, exp = fld.tables
        bits = exp[log[x] + log[y]]
    else:
        bits = _lane_mul(fld, x, y)
    return _make(fld, va + vb, bits, prec)


def s_inv(a: Series, working_prec: int = DEFAULT_PREC) -> Series:
    """Multiplicative inverse.

    The inverse of a monomial is exact.  Otherwise the result carries
    ``working_prec`` terms (or fewer, if the input itself knows fewer).
    At tau = 1 they come from Newton's step x -> u x^2 on the unit part
    u, which in characteristic 2 doubles the number of correct terms each
    time; it starts from the inverse of u mod t^8 read off _INV8, so 64
    terms take three steps instead of six.  Each step yields the unique
    inverse mod t^known, so the seed changes no bit of the result.  At
    tau >= 2 the term-by-term recurrence on the log/exp tables is the
    faster of the two on short units.
    """
    fld, u = a.field, a.bits
    if not u:
        if a.prec is None:
            raise ZeroDivisionError("inverse of the zero series")
        raise UndeterminedAtPrecision("inverse of a series that is 0 to known precision")
    w = fld.tau
    if a.prec is None and not u >> w:
        return _make(fld, -a.lead, ff_inv(fld, u), None)
    rel = working_prec if a.prec is None else min(a.prec - a.lead, working_prec)
    if w == 1:
        u &= (1 << rel) - 1
        known = min(8, rel)
        x = _INV8[(u & 0xFF) >> 1] & (1 << known) - 1
        while known < rel:
            known = min(2 * known, rel)
            mask = (1 << known) - 1
            x = _clmul(_square_bits(fld, x) & mask, u) & mask
        return _make(fld, -a.lead, x, -a.lead + rel)
    log, exp = fld.tables
    lanes = _unpack(u, w)
    log_c0 = log[ff_inv(fld, lanes[0])]
    logs_u = [(i, log[c]) for i, c in enumerate(lanes[1:rel], 1) if c]
    out = [0] * rel
    out[0] = x = exp[log_c0]
    for k in range(1, rel):
        acc = 0
        for i, li in logs_u:
            if i > k:
                break
            y = out[k - i]
            if y:
                acc ^= exp[li + log[y]]
        if acc:
            out[k] = c = exp[log_c0 + log[acc]]
            x |= c << k * w
    return _make(fld, -a.lead, x, -a.lead + rel)


def s_div(a: Series, b: Series, working_prec: int = DEFAULT_PREC) -> Series:
    return s_mul(a, s_inv(b, working_prec))


def s_truncate(a: Series, n: int) -> Series:
    """Forget everything at exponent >= n; the result has prec = n at most."""
    return _make(a.field, a.lead, a.bits, _min_prec(a.prec, n))


def s_square(a: Series) -> Series:
    """The Frobenius a -> a^2, which is additive in characteristic 2.

    The cross terms cancel, so each term c t^e squares to c^2 t^(2e) on
    its own, and a series known mod t^N has its square known mod t^(2N).
    At tau = 1 that spreads the bits of a apart.
    """
    return _make(a.field, 2 * a.lead, _square_bits(a.field, a.bits),
                 None if a.prec is None else 2 * a.prec)


def s_split(a: Series) -> tuple[Series, Series]:
    """The unique xi, eta with a = xi^2 + t eta^2.

    Even-exponent terms c t^(2k) give xi its term sqrt(c) t^k, odd ones
    c t^(2k+1) give eta its term sqrt(c) t^k: the lanes of a, taken
    alternately.  Known mod t^N, a pins xi down mod t^ceil(N/2) and eta
    mod t^floor(N/2).
    """
    fld, lead, w = a.field, a.lead, a.field.tau
    even = lead % 2  # index of the first even-exponent lane
    if w == 1:
        rev = bin(a.bits)[:1:-1]  # lanes from the lowest up
        halves = [int(rev[start::2][::-1] or "0", 2) for start in (even, 1 - even)]
    else:
        log, exp = fld.tables
        shift, units = w - 1, fld.order - 1  # sqrt(c) = c^(2^(tau-1))
        lanes = _unpack(a.bits, w)
        halves = [_pack([exp[(log[c] << shift) % units] if c else 0
                         for c in lanes[start::2]], w)
                  for start in (even, 1 - even)]
    if a.prec is None:
        precs = None, None
    else:
        precs = (a.prec + 1) // 2, a.prec // 2
    return (_make(fld, (lead + even) // 2, halves[0], precs[0]),
            _make(fld, (lead + 1 - even) // 2, halves[1], precs[1]))


def s_sqrt(a: Series) -> Series:
    """The unique square root in characteristic 2.

    Squares are exactly the series supported on even exponents; a visible
    odd-exponent coefficient means there is no root and raises ValueError.
    """
    xi, eta = s_split(a)
    if eta.bits:
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
    """Random exact series supported on exponents lo..hi inclusive.

    One draw per exponent, lowest first, each shifted into its lane.
    """
    w = cfg.tau
    while True:
        bits = 0
        for i in range(hi - lo + 1):
            bits |= rng.randrange(cfg.order) << i * w
        if bits or not nonzero:
            return _make(cfg, lo, bits, None)

"""Residue field arithmetic: F_(2^tau) in a polynomial basis.

Elements are plain ints whose bits are the coefficients of the basis
1, g, g^2, ... modulo a fixed irreducible polynomial over F_2.  tau = 1
degenerates to F_2 with modulus x (so every element is 0 or 1).

Multiplication, inverses and square roots read log/exp tables of the
multiplicative group, built on first use from the carry-less multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mulmod(x: int, y: int, modulus: int) -> int:
    # carry-less multiply, then reduce
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
    top = _poly_deg(modulus)
    for d in range(_poly_deg(acc) if acc else 0, top - 1, -1):
        if acc >> d & 1:
            acc ^= modulus << (d - top)
    return acc


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while a and _poly_deg(a) >= dm:
        a ^= m << (_poly_deg(a) - dm)
    return a


def _is_irreducible(p: int) -> bool:
    """Exhaustive trial division over F_2 (fine for degree <= 16)."""
    d = _poly_deg(p)
    if d < 1:
        return False
    if d == 1:
        return True
    for q in range(2, 1 << (d // 2 + 1)):
        if _poly_deg(q) > d // 2:
            break
        if _poly_mod(p, q) == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """The residue field F_(2^tau), fixed by an irreducible modulus."""

    tau: int
    modulus: int

    def __post_init__(self):
        if self.tau < 1 or self.tau > 16:
            raise ValueError(f"tau={self.tau} out of supported range 1..16")
        if _poly_deg(self.modulus) != self.tau:
            raise ValueError(
                f"modulus degree {_poly_deg(self.modulus)} != tau {self.tau}")
        if not _is_irreducible(self.modulus):
            raise ValueError(f"modulus {bin(self.modulus)} is reducible over F_2")

    @property
    def order(self) -> int:
        return 1 << self.tau

    def elements(self):
        return range(self.order)

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(log, exp) for the cyclic group of the 2^tau - 1 units.

        exp[k] is w^k for a primitive element w, found by search: g need
        not be one (modulo x^4+x^3+x^2+x+1, g has order 5).  exp is stored
        twice over, so exp[log x + log y] = x y needs no reduction.
        log[0] is a placeholder; callers test for zero first.  Built on
        first use and kept out of __eq__, __hash__ and repr, which see
        only (tau, modulus).
        """
        units = self.order - 1
        for w in range(1, self.order):
            exp = [1]
            x = w
            while x != 1:
                exp.append(x)
                x = _poly_mulmod(x, w, self.modulus)
            if len(exp) == units:
                break
        log = [0] * self.order
        for k, x in enumerate(exp):
            log[x] = k
        return tuple(log), tuple(exp + exp)


def field(tau: int, modulus: int | None = None) -> FieldConfig:
    """F_(2^tau); by default modulo the lowest irreducible of degree tau."""
    if modulus is None:
        if not 1 <= tau <= 16:
            raise ValueError(f"tau={tau} out of supported range 1..16")
        modulus = next(p for p in range(1 << tau, 2 << tau)
                       if _is_irreducible(p))
    return FieldConfig(tau, modulus)


def ff_mul(cfg: FieldConfig, x: int, y: int) -> int:
    if not x or not y:
        return 0
    log, exp = cfg.tables
    return exp[log[x] + log[y]]


def ff_inv(cfg: FieldConfig, x: int) -> int:
    if x == 0:
        raise ZeroDivisionError("inverse of 0 in the residue field")
    log, exp = cfg.tables
    return exp[cfg.order - 1 - log[x]]


def ff_sqrt(cfg: FieldConfig, x: int) -> int:
    """Unique square root: the inverse of the Frobenius, x^(2^(tau-1))."""
    if not x:
        return 0
    log, exp = cfg.tables
    return exp[(log[x] << (cfg.tau - 1)) % (cfg.order - 1)]


def ff_trace(cfg: FieldConfig, x: int) -> int:
    """Absolute trace to F_2: sum of x^(2^i) for i < tau.  Returns 0 or 1."""
    acc, p = 0, x
    for _ in range(cfg.tau):
        acc ^= p
        p = ff_mul(cfg, p, p)
    if acc not in (0, 1):
        raise AssertionError(f"trace landed outside F_2: {acc}")
    return acc


def ff_artin_schreier_root(cfg: FieldConfig, u: int) -> int | None:
    """Solve c^2 + c = u in the residue field; None iff trace(u) = 1.

    The map c -> c^2 + c is F_2-linear with image the trace-zero hyperplane,
    so for tau <= 16 a direct scan is cheap and needs no linear algebra.
    """
    if ff_trace(cfg, u) == 1:
        return None
    for c in cfg.elements():
        if ff_mul(cfg, c, c) ^ c == u:
            return c
    raise AssertionError("trace-zero element with no Artin-Schreier root")

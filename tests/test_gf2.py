from __future__ import annotations

import random

import pytest

from btbranch.gf2 import (FieldConfig, _poly_mulmod, ff_artin_schreier_root,
                          ff_inv, ff_mul, ff_sqrt, ff_trace, field)
from references import ff_pow


SMALL_TAUS = (1, 2, 3, 4)


def _check_tables(cfg, xs, ys):
    for x in xs:
        for y in ys:
            assert ff_mul(cfg, x, y) == _poly_mulmod(x, y, cfg.modulus)
        assert ff_sqrt(cfg, x) == ff_pow(cfg, x, 1 << (cfg.tau - 1))
        if x:
            assert ff_inv(cfg, x) == ff_pow(cfg, x, cfg.order - 2)


@pytest.mark.parametrize("tau", range(1, 17))
def test_tables_agree_with_the_carry_less_reference(tau):
    # exhaustive up to tau 6, a seeded sample above
    cfg = field(tau)
    if tau <= 6:
        xs = ys = cfg.elements()
    else:
        rng = random.Random(tau)
        xs = [0, 1, cfg.order - 1] + [rng.randrange(cfg.order)
                                      for _ in range(60)]
        ys = [0, 1, cfg.order - 1] + [rng.randrange(cfg.order)
                                      for _ in range(20)]
    _check_tables(cfg, xs, ys)


def test_tables_need_no_primitive_root_of_the_modulus():
    # modulo x^4 + x^3 + x^2 + x + 1 the root g has order 5, not 15
    cfg = field(4, 0b11111)
    assert ff_pow(cfg, 0b10, 5) == 1
    log, exp = cfg.tables
    assert sorted(exp[:cfg.order - 1]) == list(range(1, cfg.order))
    _check_tables(cfg, cfg.elements(), cfg.elements())


def test_tables_stay_out_of_equality_hash_and_repr():
    a, b = field(2), field(2)
    before = (a == b, hash(a) == hash(b), repr(a))
    a.tables
    assert (a == b, hash(a) == hash(b), repr(a)) == before == (
        True, True, "FieldConfig(tau=2, modulus=7)")
    b.tables
    assert a == b and hash(a) == hash(b)


def test_default_moduli_cover_one_through_eight():
    for tau in range(1, 9):
        cfg = field(tau)
        assert cfg.tau == tau
        assert cfg.order == 2 ** tau


def test_default_modulus_is_the_lowest_irreducible_of_its_degree():
    conventional = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
                    6: 0b1000011, 7: 0b10000011, 8: 0b100011011}
    for tau, modulus in conventional.items():
        assert field(tau).modulus == modulus
    assert field(9).modulus == 0b1000000011
    assert field(16).order == 2 ** 16


@pytest.mark.parametrize("tau", (0, 17, 1000))
def test_degree_outside_the_supported_range_is_an_error(tau):
    with pytest.raises(ValueError, match="out of supported range"):
        field(tau)


def test_addition_is_xor():
    # xor is the field's addition: multiplication distributes over it
    cfg = field(3)
    for x in range(8):
        for y in range(8):
            for z in range(8):
                assert (ff_mul(cfg, x, y ^ z)
                        == ff_mul(cfg, x, y) ^ ff_mul(cfg, x, z))


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_multiplicative_inverses(tau):
    cfg = field(tau)
    for x in range(1, cfg.order):
        assert ff_mul(cfg, x, ff_inv(cfg, x)) == 1


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_frobenius_fixes_the_field(tau):
    # x^(2^tau) = x for every element
    cfg = field(tau)
    for x in range(cfg.order):
        assert ff_pow(cfg, x, cfg.order) == x


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_sqrt_is_the_inverse_frobenius(tau):
    cfg = field(tau)
    for x in range(cfg.order):
        r = ff_sqrt(cfg, x)
        assert ff_mul(cfg, r, r) == x


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_trace_is_additive_and_frobenius_invariant(tau):
    cfg = field(tau)
    for x in range(cfg.order):
        assert ff_trace(cfg, x) in (0, 1)
        assert ff_trace(cfg, ff_mul(cfg, x, x)) == ff_trace(cfg, x)
    rng = random.Random(5)
    for _ in range(200):
        x, y = rng.randrange(cfg.order), rng.randrange(cfg.order)
        assert ff_trace(cfg, x ^ y) == ff_trace(cfg, x) ^ ff_trace(cfg, y)


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_trace_splits_the_field_in_half(tau):
    cfg = field(tau)
    kernel = sum(1 for x in range(cfg.order) if ff_trace(cfg, x) == 0)
    assert kernel == cfg.order // 2


def test_trace_table_for_the_default_degree_three_field():
    # modulus x^3 + x + 1: the kernel of the trace is {0, g, g^2, g^2+g}
    cfg = field(3)
    assert cfg.modulus == 0b1011
    assert [ff_trace(cfg, x) for x in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("tau", SMALL_TAUS)
def test_artin_schreier_root_solves_or_refuses(tau):
    cfg = field(tau)
    for u in range(cfg.order):
        r = ff_artin_schreier_root(cfg, u)
        if ff_trace(cfg, u) == 1:
            assert r is None
        else:
            assert ff_mul(cfg, r, r) ^ r == u


def test_custom_modulus_is_accepted():
    # x^2 + x + 1 spelled explicitly must agree with the default
    explicit = field(2, 0b111)
    assert isinstance(explicit, FieldConfig)
    assert explicit.order == 4
    for x in range(1, 4):
        assert ff_mul(explicit, x, ff_inv(explicit, x)) == 1


def test_reducible_modulus_is_rejected():
    with pytest.raises(ValueError):
        field(2, 0b101)  # x^2 + 1 = (x+1)^2

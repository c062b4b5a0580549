"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test prints a single summary line so a scan of the verbose output
shows which guarantees held.  The heavyweight randomised run is shared
across tests through a module fixture.
"""
from __future__ import annotations

import random
import time
from math import inf

import pytest

from btbranch.defects import as_defect, quad_defect
from btbranch.existence import algebra_spec, decide, verify_witness
from btbranch.gf2 import field
from btbranch.mat2 import (Mat2, det, discriminant_params, m_parse, m_render,
                           make_pair, sym_product, trace)
from btbranch.selftest import run_selftest
from btbranch.series import (s_add, s_inv, s_monomial, s_mul, s_parse,
                             s_random, s_render, s_square, s_truncate, s_zero)

F1 = field(1)


@pytest.fixture(scope="module")
def shared_run():
    start = time.monotonic()
    report = run_selftest(seed=7, tau=1, count=500, radius=8, margin=2)
    return report, time.monotonic() - start


def test_defect_image_law():
    # both defect maps land in their advertised ideal families
    rng = random.Random(2026)
    fields = [field(tau) for tau in (1, 2, 3)]
    start = time.monotonic()
    for i in range(10_000):
        a = s_random(fields[i % 3], rng, -8, 8)
        v = as_defect(a).ideal
        assert v == inf or v == 0 or (v < 0 and v % 2 == 1)
        w = quad_defect(a).ideal
        assert w == inf or w % 2 == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\ncriterion 1: PASS (10000 samples over 3 fields, {elapsed:.2f}s)")


def test_defect_brute_force_agreement(shared_run):
    report, _ = shared_run
    assert report.defect_checked >= 500
    assert report.defect_disagreements == 0
    print(f"\ncriterion 2: PASS ({report.defect_checked} elements against "
          "the exhaustive grid, 0 disagreements)")


def _nonzero(fld, rng, lo=0, hi=4):
    return s_random(fld, rng, lo, hi, nonzero=True)


def _check_row(q1, q2, lam_expected, delta_expected):
    lam = sym_product(q1, q2)
    assert lam == lam_expected
    delta = discriminant_params(trace(q1), det(q1), trace(q2), det(q2), lam)
    assert delta == delta_expected


def test_canonical_pair_forms(rounds=12):
    # the six canonical matrix pairs reproduce their pairing value and
    # discriminant as exact series identities
    rng = random.Random(41)
    z = s_zero(F1)

    def diag_split(a, al):   # eigenvalues a + al, al
        return Mat2(s_add(a, al), z, z, al)

    def upper(a, al):
        return Mat2(al, a, z, al)

    def lower(a, al):
        return Mat2(al, z, a, al)

    def lower_split(a, al):  # eigenvalues al, a + al
        return Mat2(al, z, a, s_add(a, al))

    for _ in range(rounds):
        a1, a2 = _nonzero(F1, rng), _nonzero(F1, rng)
        al1, al2 = s_random(F1, rng, 0, 4), s_random(F1, rng, 0, 4)
        u, v = _nonzero(F1, rng), _nonzero(F1, rng)
        s, r = rng.randrange(0, 5), rng.randrange(0, 5)

        # two split generators with distinct eigenvector pairs; the free
        # parameter is kept 1 + monomial so the division stays exact
        m = s_monomial(F1, rng.randrange(1, 7))
        theta = s_add(s_parse(F1, "1"), m)
        inv = s_inv(m, 64)
        x = s_mul(a2, s_mul(theta, inv))
        y = s_mul(a2, inv)
        q2 = Mat2(s_add(x, al2), x, y, s_add(y, al2))
        lam = s_add(s_add(s_mul(a1, al2), s_mul(a2, al1)),
                    s_mul(a1, y))
        delta = s_mul(s_mul(s_square(a1), s_square(a2)),
                      s_mul(theta, s_square(inv)))
        _check_row(diag_split(a1, al1), q2, lam, delta)

        # same eigenvector pair: everything collapses
        _check_row(diag_split(a1, al1), diag_split(a2, al2),
                   s_add(s_mul(a1, al2), s_mul(a2, al1)), z)

        # opposite nilpotents at a pole
        eta2 = s_mul(v, s_monomial(F1, -s))
        _check_row(upper(u, z), lower(eta2, z),
                   s_mul(u, eta2), s_square(s_mul(u, eta2)))

        # parallel nilpotents never pair
        _check_row(upper(u, z), upper(s_mul(v, s_monomial(F1, s)), z), z, z)

        # split against a unipotent shift
        w = s_mul(u, s_monomial(F1, r))
        _check_row(lower_split(a1, al1), upper(w, al2),
                   s_mul(a1, s_add(al2, w)),
                   s_square(s_mul(a1, w)))

        # split against a unipotent shift on the other side
        _check_row(diag_split(a1, al1), upper(w, al2), s_mul(a1, al2), z)
    print(f"\ncriterion 3: PASS (6 canonical forms x {rounds} random draws)")


def test_relative_position_differential_suite(shared_run):
    report, elapsed = shared_run
    assert report.pair_attempted >= 500
    assert report.pair_mismatched == 0
    assert report.pair_safe >= 400
    assert elapsed < 600.0

    cov = report.coverage
    assert cov["A^i/A^i FoliageContained"] > 0
    assert cov["A^i/A^i FoliageMeet"] > 0
    assert cov["A^s/A^s SharedRay"] > 0
    assert cov["A^s/A^s SharedMaxPath"] > 0
    matched = {key[: -len(" matched")] for key, n in report.cells.items()
               if key.endswith(" matched") and n > 0}
    assert any("B^s" in cell for cell in matched)
    assert any("B^i" in cell for cell in matched)
    assert any(cell.split("/")[0][-1] != cell.split("/")[1][-1]
               for cell in matched)
    print(f"\ncriterion 4: PASS ({report.pair_safe} safe pairs, "
          f"0 mismatches, {len(matched)} cells, {elapsed:.0f}s)")


def test_single_branch_differential_suite(shared_run):
    report, _ = shared_run
    assert report.branch_attempted >= 200
    assert report.branch_mismatched == 0
    for kind in ("reducible_sep", "unramified_sep", "ramified_sep",
                 "reducible_insep", "ramified_insep"):
        assert report.branch_classes[f"{kind} matched"] > 0
    print(f"\ncriterion 5: PASS ({report.branch_attempted} branches over "
          "all five classes, 0 mismatches)")


def test_ramified_separable_sign_resolution(shared_run):
    report, _ = shared_run
    assert report.tsign_total >= 20
    assert report.tsign_implemented == report.tsign_total
    assert "corrections enter negatively" in report.render()
    print(f"\ncriterion 6: PASS ({report.tsign_total} discriminating "
          f"instances, floor reading survives {report.tsign_floor})")


def test_existence_decisions(shared_run):
    division = algebra_spec(s_parse(F1, "0"), s_parse(F1, "1"),
                            s_parse(F1, "1"), s_parse(F1, "0"),
                            s_parse(F1, "t"), 64)
    assert decide(division, 64).exists is False

    witnessed = {
        "i": ("0", "1", "0", "0", "t"),
        "iii": ("t", "1", "0", "1", "t + t^2"),
        "iv": ("t", "0", "t^2", "1", "0"),
        "v": ("0", "0", "t", "0", "t^2 + t^3"),
    }
    for expected, texts in witnessed.items():
        spec = algebra_spec(*(s_parse(F1, s) for s in texts), 64)
        verdict = decide(spec, 64)
        assert verdict.exists and verdict.matched_condition == expected
        q1, q2 = verdict.witness
        assert verify_witness(spec, q1, q2)
        make_pair(q1, q2, 64)

    report, _ = shared_run
    assert report.symbol_specs >= 200
    assert report.symbol_conclusive > 0
    assert report.symbol_disagreements == 0
    print(f"\ncriterion 7: PASS (division datum refused, 4 witnessed "
          f"conditions, {report.symbol_conclusive}/{report.symbol_specs} "
          "search-certified)")


def test_determinism_and_grammar_round_trip():
    first = run_selftest(seed=7, tau=1, count=120, radius=6).render()
    second = run_selftest(seed=7, tau=1, count=120, radius=6).render()
    assert first == second

    rng = random.Random(99)
    fields = [field(tau) for tau in (1, 2, 3)]
    for _ in range(1000):
        fld = rng.choice(fields)
        a = s_random(fld, rng, -4, 8)
        if rng.random() < 0.4:
            a = s_truncate(a, rng.randrange(-3, 10))
        assert s_parse(fld, s_render(a)) == a
    for _ in range(1000):
        fld = rng.choice(fields)
        q = Mat2(*(s_random(fld, rng, -3, 4) for _ in range(4)))
        assert m_parse(fld, m_render(q)) == q
    print("\ncriterion 8: PASS (byte-identical reports, 2000 round-trips)")

"""The benchmark's workloads: inputs made from a seed, the timed
operation, and checks of each answer against something the program
did not compute.

Every workload has the same shape:

* ``prepare()`` is the set-up: field construction, plus the window
  where the workload uses one.  The set-up children time it together
  with interpreter start and import.
* ``inputs(seed, n)`` builds ``n`` units of work, untimed.
* ``run(ctx, item)`` is one timed operation.  It reaches the program
  only through module attributes (``existence.decide``, ...), so the
  tracer's wrappers see every call.
* ``check(ctx, item, out)`` returns a ``Tally``.  Checks run after the
  timing and, in a traced run, after the tracer is removed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from btbranch import existence, geometry, gf2, mat2, selftest, series, tree

PREC = 64


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    compared: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.compared += other.compared
        self.problems.extend(other.problems)


def _poly(fld, mask: int):
    """The exact F_2[t] polynomial whose coefficient bits are ``mask``."""
    return series.s_from_terms(
        fld, {e: 1 for e in range(mask.bit_length()) if mask >> e & 1})


def _clmul(x: int, y: int) -> int:
    """Product in F_2[t] of two coefficient bitmasks."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
    return acc


def _val(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _conjugator(rng, fld):
    """A product of one to three shears and t-power scalings.

    Its determinant is a power of t, so conjugating by it stays exact.
    """
    one, zero = series.s_one(fld), series.s_zero(fld)
    g = mat2.Mat2(one, zero, zero, one)
    for _ in range(rng.randrange(1, 4)):
        move = rng.randrange(3)
        x = series.s_random(fld, rng, 0, 2)
        if move == 0:
            step = mat2.Mat2(one, x, zero, one)
        elif move == 1:
            step = mat2.Mat2(one, zero, x, one)
        else:
            step = mat2.Mat2(series.s_monomial(fld, rng.choice((-1, 1))),
                             zero, zero, one)
        g = mat2.m_mul(g, step)
    return g


class Workload:
    """Defaults for a workload whose operation is one attempt and whose
    set-up has nothing to check."""

    def check_setup(self, ctx) -> list[str]:
        return []

    def planned(self, item) -> int:
        return 1


# -- sweep ----------------------------------------------------------

class Sweep(Workload):
    """``run_selftest`` at tau 1, radius 8, margin 2, prec 64.

    One operation is one self-test of ``n`` instances with the run's
    seed, as ``btbranch selftest --count n`` runs it.
    """

    name = "sweep"
    radius = 8
    per_second = 4.5     # self-test count per second of run
    short_n = 3

    def prepare(self):
        fld = gf2.field(1)
        return fld, tree.enumerate_window(fld, self.radius)

    def check_setup(self, ctx) -> list[str]:
        _, window = ctx
        want = 1 + 3 * (2 ** self.radius - 1)
        got = len(set(window.vertices))
        if got != want or len(window.vertices) != want:
            return [f"window of radius {self.radius} has {got} distinct "
                    f"vertices, expected {want}"]
        return []

    def inputs(self, seed: int, n: int):
        return [(seed, n)]

    def planned(self, item) -> int:
        count = item[1]
        return 2 * count + 2 * (2 * count // 5)

    def run(self, ctx, item):
        seed, count = item
        return selftest.run_selftest(seed=seed, tau=1, count=count,
                                     radius=self.radius, margin=2, prec=PREC)

    def check(self, ctx, item, rep) -> Tally:
        _, count = item
        t = Tally()
        t.attempted = (rep.pair_attempted + rep.branch_attempted
                       + rep.defect_checked + rep.symbol_specs)
        t.failed = (rep.pair_mismatched + rep.branch_mismatched
                    + rep.defect_disagreements + rep.symbol_disagreements)
        t.compared = (rep.pair_matched + rep.branch_matched
                      + rep.defect_checked + rep.symbol_conclusive)
        suites = (("pairs", rep.pair_attempted, rep.pair_matched,
                   rep.pair_mismatched, rep.pair_skipped, count),
                  ("branches", rep.branch_attempted, rep.branch_matched,
                   rep.branch_mismatched, rep.branch_skipped, 2 * count // 5))
        for name, att, ok, bad, skip, want in suites:
            if att != want:
                t.problems.append(f"{name}: attempted {att}, expected {want}")
            if att != ok + bad + skip:
                t.problems.append(f"{name}: attempted {att} != matched {ok} "
                                  f"+ mismatched {bad} + skipped {skip}")
        if rep.defect_checked != count or rep.symbol_specs != 2 * count // 5:
            t.problems.append("defect or symbol suite ran the wrong count")
        skips = rep.pair_skipped + rep.branch_skipped
        if len(rep.skipped_list) != skips:
            t.problems.append(f"{skips} skips but {len(rep.skipped_list)} "
                              "reasons listed")
        for line in rep.skipped_list:
            head, _, reason = line.partition(": ")
            if not reason.strip():
                t.problems.append(f"skip without a reason: {line!r}")
        t.problems.extend(rep.mismatch_list)
        return t


# -- realise --------------------------------------------------------

class Realise(Workload):
    """Realisability data over F_4, as ``btbranch exists --search-box 0,0``.

    Three kinds rotate, so every run has the same mix:

    * ``pair``: read off a random integral matrix pair, so realised by
      construction;
    * ``split``: one factor built as (X + r1)(X + r2), which must be
      realised; it sits first or second in turn;
    * ``symbol``: drawn like the self-test's symbol data, redrawn until
      neither factor is reducible, so the verdict rests on the residue
      symbol and only a search hit can confirm it.

    Every datum has a nonzero discriminant, where a search hit proves
    that the algebra splits.
    """

    name = "realise"
    box = (0, 0)
    per_second = 15.0
    short_n = 6

    def prepare(self):
        return gf2.field(2)

    def _from_pair(self, rng, fld):
        while True:
            q1 = mat2.Mat2(*(series.s_random(fld, rng, 0, 1) for _ in range(4)))
            q2 = mat2.Mat2(*(series.s_random(fld, rng, 0, 1) for _ in range(4)))
            if mat2.is_scalar(q1) or mat2.is_scalar(q2):
                continue
            spec = existence.algebra_spec(
                mat2.sym_product(q1, q2), mat2.trace(q1), mat2.det(q1),
                mat2.trace(q2), mat2.det(q2), PREC)
            if not spec.disc.is_zero:
                return spec

    def _split(self, rng, fld, second: bool):
        while True:
            r1, r2 = (series.s_random(fld, rng, 0, 1) for _ in range(2))
            split = (series.s_add(r1, r2), series.s_mul(r1, r2))
            other = (series.s_random(fld, rng, 0, 2),
                     series.s_random(fld, rng, 0, 2))
            lam = series.s_random(fld, rng, -1, 2)
            a1, b1, a2, b2 = (*other, *split) if second else (*split, *other)
            spec = existence.algebra_spec(lam, a1, b1, a2, b2, PREC)
            if not spec.disc.is_zero:
                return spec

    def _symbol(self, rng, fld):
        while True:
            a1, b1, a2, b2 = (series.s_random(fld, rng, 0, 2) for _ in range(4))
            lam = series.s_random(fld, rng, -1, 2)
            spec = existence.algebra_spec(lam, a1, b1, a2, b2, PREC)
            if not (spec.disc.is_zero or spec.m1.reducible
                    or spec.m2.reducible):
                return spec

    def inputs(self, seed: int, n: int):
        fld = self.prepare()
        rng = random.Random(f"realise:{seed}")
        out = []
        for i in range(n):
            if i % 3 == 0:
                out.append(("pair", self._from_pair(rng, fld)))
            elif i % 3 == 1:
                out.append(("split", self._split(rng, fld, (i // 3) % 2 == 1)))
            else:
                out.append(("symbol", self._symbol(rng, fld)))
        return out

    def run(self, ctx, item):
        _, spec = item
        lo, hi = self.box
        return (existence.decide(spec, PREC),
                existence.search_zero_divisor(spec, lo, hi),
                existence.search_pair(spec, lo, hi))

    def check(self, ctx, item, out) -> Tally:
        kind, spec = item
        verdict, zd, hit = out
        reasons = []
        if kind == "pair":
            reasons.append("read off a matrix pair")
        if kind == "split" or spec.m1.reducible or spec.m2.reducible:
            reasons.append("reducible factor")
        if zd is not None:
            reasons.append("zero divisor found")
        if hit is not None:
            reasons.append("norm-form solution found")
        t = Tally(attempted=1)
        if reasons and not verdict.exists:
            t.problems.append(f"{reasons[0]} but the verdict says no pair")
        if verdict.witness is not None:
            if existence.verify_witness(spec, *verdict.witness):
                reasons.append("verified witness")
            else:
                t.problems.append("constructed witness fails verification")
        if t.problems:
            t.failed = 1
        elif reasons:
            t.compared = 1
        return t


# -- predict --------------------------------------------------------

_NILPOTENT_EXPONENTS = (None, -2, -1, 0, 1, 2, 3, 4, 5)


def _expected_nilpotent(j) -> str:
    if j is None:
        return "one foliage contains the other"
    if j < 0:
        return f"disjoint, stem distance {-j}"
    stem = "edge" if j % 2 else "vertex"
    return f"foliages meet: diameter {j}, depth {j // 2}, {stem} stem"


def _expected_lines(r1: int, r2: int, s1: int, s2: int) -> str:
    """Relative position of the lines r1-r2 and s1-s2 between ends in
    F_2[t], from the four-point condition on v(x - y)."""
    if {r1, r2} == {s1, s2}:
        return "stems share a maximal path"
    if len({r1, r2, s1, s2}) == 3:
        return "stems share a ray"
    own = _val(r1 ^ r2) + _val(s1 ^ s2)
    cross = (_val(r1 ^ s1) + _val(r2 ^ s2), _val(r1 ^ s2) + _val(r2 ^ s1))
    if own > max(cross):
        return f"disjoint, stem distance {own - max(cross)}"
    return f"stems overlap in a path of length {abs(cross[0] - cross[1])}"


@dataclass
class PredictItem:
    kind: str               # "nilpotent" | "lines" | "lines_conj"
    q1: object
    q2: object
    expected: str           # the rendered relative position
    ends: tuple = ()        # (r1, r2, s1, s2) bitmasks for unconjugated lines
    conj: object = None     # a further common conjugator for the invariance check


class Predict(Workload):
    """Generating pairs over F_2 at prec 64, as ``btbranch relpos`` and
    ``btbranch branch`` handle them.  The kinds rotate: a conjugated
    nilpotent pair, the companions of two split quadratics, and the
    same companions under one common conjugation."""

    name = "predict"
    per_second = 140.0
    short_n = 9
    min_end_prec = 8

    def prepare(self):
        return gf2.field(1)

    def _nilpotent(self, rng, fld, j):
        zero = series.s_zero(fld)
        a1 = series.s_random(fld, rng, 0, 2)
        a2 = series.s_random(fld, rng, 0, 2)
        unit = series.s_add(series.s_one(fld), series.s_random(fld, rng, 1, 2))
        q1 = mat2.Mat2(a1, series.s_one(fld), zero, a1)
        if j is None:
            q2 = mat2.Mat2(a2, unit, zero, a2)
        else:
            lam = series.s_mul(series.s_monomial(fld, j), unit)
            q2 = mat2.Mat2(a2, zero, lam, a2)
        g = _conjugator(rng, fld)
        return mat2.m_conj(g, q1), mat2.m_conj(g, q2)

    def _lines(self, rng, fld):
        while True:
            r1, r2, s1, s2 = (rng.randrange(16) for _ in range(4))
            if r1 != r2 and s1 != s2:
                break
        q1 = mat2.companion(_poly(fld, r1 ^ r2), _poly(fld, _clmul(r1, r2)))
        q2 = mat2.companion(_poly(fld, s1 ^ s2), _poly(fld, _clmul(s1, s2)))
        return q1, q2, (r1, r2, s1, s2)

    def inputs(self, seed: int, n: int):
        fld = self.prepare()
        rng = random.Random(f"predict:{seed}")
        out = []
        for i in range(n):
            kind = i % 3
            if kind == 0:
                j = _NILPOTENT_EXPONENTS[(i // 3) % len(_NILPOTENT_EXPONENTS)]
                q1, q2 = self._nilpotent(rng, fld, j)
                item = PredictItem("nilpotent", q1, q2, _expected_nilpotent(j))
            else:
                q1, q2, ends = self._lines(rng, fld)
                item = PredictItem("lines", q1, q2, _expected_lines(*ends),
                                   ends)
                if kind == 2:
                    g = _conjugator(rng, fld)
                    item = PredictItem("lines_conj", mat2.m_conj(g, q1),
                                       mat2.m_conj(g, q2), item.expected)
            item.conj = _conjugator(rng, fld)
            out.append(item)
        return out

    def run(self, ctx, item):
        pair = mat2.make_pair(item.q1, item.q2, PREC)
        return (pair, geometry.branch_shape(item.q1, PREC),
                geometry.branch_shape(item.q2, PREC),
                geometry.predict_relpos(pair))

    def _line_problem(self, shape, r1: int, r2: int) -> str | None:
        """The branch of the companion of (X + r1)(X + r2) is the line
        between r1 and r2 at depth v(r1 + r2)."""
        if getattr(shape, "stem_kind", None) != "maxpath":
            return f"expected a line, got {shape.render()}"
        if shape.depth != _val(r1 ^ r2):
            return f"line depth {shape.depth}, expected {_val(r1 ^ r2)}"
        left = {r1, r2}
        for end in shape.ends:
            x = end.value
            if x is None or (x.prec is not None and x.prec < self.min_end_prec):
                return f"end {end.render()} is not pinned down"
            bits = 0
            for e, c in x.terms():
                if e < 0:
                    return f"end {end.render()} is not integral"
                bits |= c << e
            mask = -1 if x.prec is None else (1 << x.prec) - 1
            match = [r for r in left if (bits ^ r) & mask == 0]
            if not match:
                return f"end {end.render()} is neither root"
            left.discard(match[0])
        return None

    def check(self, ctx, item, out) -> Tally:
        _, shape1, shape2, rel = out
        t = Tally(attempted=1)
        got = rel.render()
        if got != item.expected:
            t.problems.append(f"{item.kind}: predicted {got!r}, "
                              f"expected {item.expected!r}")
        if item.ends:
            r1, r2, s1, s2 = item.ends
            for shape, roots in ((shape1, (r1, r2)), (shape2, (s1, s2))):
                why = self._line_problem(shape, *roots)
                if why:
                    t.problems.append(f"{item.kind}: {why}")
        g = item.conj
        moved = mat2.make_pair(mat2.m_conj(g, item.q1), mat2.m_conj(g, item.q2),
                               PREC)
        again = geometry.predict_relpos(moved).render()
        if again != got:
            t.problems.append(f"{item.kind}: {got!r} becomes {again!r} "
                              "under a common conjugation")
        if t.problems:
            t.failed = 1
        else:
            t.compared = 1
        return t


WORKLOADS = {w.name: w for w in (Sweep(), Realise(), Predict())}

"""Branch shapes, the fake distance, and predicted stem positions.

A branch is either a thick line (a stem path fattened by a depth) or an
infinite foliage (a horoball toward one boundary end).  This module
derives the shape symbolically from a matrix, materialises shapes back
into vertex predicates so they can be checked against the membership
oracle, and predicts the relative position of two stems from the
datum of the pair, the two minimal polynomials and the pairing scalar,
and in one row whether the generators commute.

Distances are spelled as valuations are: ints, with math.inf for the
infinite ones.  The fake distance is a half-integer, because it is
naturally computed on a barycentric subdivision, so fake_distance
returns twice it, and -inf for a vanishing discriminant.  A stem is 0,
1 or inf long.  The gap val(e1 + e2) between the ends of a maximal path
is -inf when one end is infinity, and a prediction with no length or
diameter (a shared ray or maximal path, a containment) is bounded by inf.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf

from .defects import (RAMIFIED_INSEP, RAMIFIED_SEP, REDUCIBLE_INSEP,
                      REDUCIBLE_SEP, UNRAMIFIED_SEP)
from .mat2 import (Datum, Mat2, NonIntegral, PairConfig, ScalarMatrix,
                   is_scalar, min_poly, trace)
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, _min_prec,
                     s_add, s_div, s_inv, s_mul, s_render, s_val, val_ge)
from .tree import MeasuredShape, Vertex, Window, grow, tree_distance

# -- boundary points ------------------------------------------------

@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective line: a series, or None for infinity."""

    value: Series | None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def render(self) -> str:
        return "inf" if self.value is None else s_render(self.value)


# -- shapes ---------------------------------------------------------

@dataclass(frozen=True)
class ThickLine:
    """A stem (maximal path, single vertex or edge) fattened by a depth."""

    stem_kind: str  # "maxpath" | "vertex" | "edge"
    depth: int
    ends: tuple[ProjPoint, ProjPoint] | None = None
    stem: tuple[Vertex, ...] = ()

    def render(self) -> str:
        if self.stem_kind == "maxpath":
            a, b = self.ends
            return f"line({a.render()}, {b.render()}) depth {self.depth}"
        stem = " -- ".join(v.render() for v in self.stem)
        return f"{self.stem_kind} {stem} depth {self.depth}"


@dataclass(frozen=True)
class InfiniteFoliage:
    """The horoball of balls at level >= ``level`` toward ``end``."""

    end: ProjPoint
    level: int

    def render(self) -> str:
        return f"foliage(end {self.end.render()}, level {self.level})"


BranchShape = ThickLine | InfiniteFoliage


_STEM_LENGTHS = {REDUCIBLE_SEP: inf, UNRAMIFIED_SEP: 0, RAMIFIED_SEP: 1,
                 REDUCIBLE_INSEP: inf, RAMIFIED_INSEP: 1}


def stem_length_of_kind(kind: str) -> int | float:
    return _STEM_LENGTHS[kind]


# -- the shape of a branch, symbolically ----------------------------

def branch_shape(q: Mat2, working_prec: int = DEFAULT_PREC) -> BranchShape:
    """Derive the branch of an integral non-scalar matrix.

    Separable reducible: the maximal path between the two Moebius fixed
    points, depth = val(trace).  With C != 0 the fixed points are the
    roots y of the minimal polynomial m, moved by z = (y + A)/C, since
    C z^2 + (A + D) z + B = m(C z + A)/C; the roots are read off m's
    classification, so nothing is solved again.  Unramified: a single
    ball whose center is corrected by the Artin-Schreier defect witness.
    Ramified (either flavour): an edge, displaced along the same center
    by the jump t.  Inseparable reducible: the horoball of the unique
    fixed end.
    """
    if is_scalar(q):
        raise ScalarMatrix("scalar matrices belong to every order")
    m = min_poly(q, working_prec)
    if not (val_ge(m.a, 0) and val_ge(m.b, 0)):
        raise NonIntegral("a branch needs an integral trace and determinant")
    A, B, C = q.a, q.b, q.c
    c = m.a

    if m.kind == REDUCIBLE_SEP:
        depth = s_val(c)
        if C.is_zero:
            return ThickLine("maxpath", depth, ends=(
                ProjPoint(s_div(B, c, working_prec)),
                ProjPoint(None)))
        y = s_inv(C, working_prec)
        return ThickLine("maxpath", depth, ends=tuple(
            ProjPoint(s_mul(s_add(r, A), y))
            for r in m.roots))

    if m.kind == REDUCIBLE_INSEP:
        alpha = m.defect.witness  # sqrt(det), split off by the square defect
        if C.is_zero:
            # here q + alpha is strictly upper triangular, so the end is
            # infinity and the leaf level is the valuation of its corner
            return InfiniteFoliage(ProjPoint(None), s_val(B))
        end = s_div(s_add(A, alpha), C, working_prec)
        return InfiniteFoliage(ProjPoint(end), -s_val(C))

    # the remaining classes all have a nonzero lower-left entry
    if C.looks_zero:
        raise AssertionError(f"vanishing corner entry in class {m.kind}")
    y = s_inv(C, working_prec)
    x = s_mul(A, y)
    if m.kind == UNRAMIFIED_SEP:
        xi = s_add(x, s_mul(s_mul(c, y), m.defect.witness))
        lvl = s_val(c) - s_val(C)
        return ThickLine("vertex", s_val(c), stem=(Vertex(lvl, xi),))
    if m.kind == RAMIFIED_SEP:
        xi = s_add(x, s_mul(s_mul(c, y), m.defect.witness))
        lvl = s_val(c) - s_val(C) - m.t
        return ThickLine("edge", s_val(c) - m.t,
                         stem=(Vertex(lvl, xi), Vertex(lvl + 1, xi)))
    # ramified inseparable
    xi = s_add(x, s_mul(y, m.defect.witness))
    lvl = -s_val(C) + m.t
    return ThickLine("edge", m.t,
                     stem=(Vertex(lvl, xi), Vertex(lvl + 1, xi)))


# -- materialisation ------------------------------------------------
#
# Centers and ends coming out of branch_shape are known to the working
# precision only.  Every valuation below is capped by the level of the
# vertex it serves: beyond the cap the membership inequality no longer
# depends on it, and below the cap it is either seen or refused.

def _val_sum_capped(x: Series, y: Series, cap: int) -> int:
    """min(cap, val(x + y)), certified, without building x + y.

    Only the coefficients below min(cap, prec) can matter, and a vertex
    level keeps that to a handful, so the two operands' lanes are aligned,
    masked below that bound and XORed, and the lowest set bit is read.
    Raises when the sum looks zero below cap.
    """
    fld = x.field
    if y.field is not fld and y.field != fld:
        raise ValueError("mixed residue fields")
    prec = _min_prec(x.prec, y.prec)
    hi = cap if prec is None else min(cap, prec)
    lo = min(x.lead if x.bits else hi, y.lead if y.bits else hi)
    if lo < hi:
        w = fld.tau
        diff = 0
        for s in (x, y):
            if s.bits:
                diff ^= s.bits << (s.lead - lo) * w
        diff &= (1 << (hi - lo) * w) - 1
        if diff:
            return lo + ((diff & -diff).bit_length() - 1) // w
    if prec is None or prec >= cap:
        return cap
    raise UndeterminedAtPrecision(
        f"valuation needed up to {cap}, series is 0 mod t^{prec}")


def _path_ends(e1: ProjPoint, e2: ProjPoint):
    """The finite ends of a maximal path, and their gap val(e1 + e2):
    -inf when one end is infinity."""
    finite = [e.value for e in (e1, e2) if not e.is_infinity]
    if not finite:
        raise ValueError("a path needs two distinct ends")
    if len(finite) == 1:
        return finite, -inf
    gap = s_add(*finite)
    if gap.is_zero:
        raise ValueError("the two ends coincide")
    return finite, s_val(gap)


def _dist_from_ends(v: Vertex, finite: list[Series], m: int | float) -> int:
    best = inf
    for e in finite:
        p = _val_sum_capped(v.center, e, v.r)
        d = v.r - p if p >= m else v.r + m - 2 * p
        if d < best:
            best = d
    return best


def dist_to_path(v: Vertex, e1: ProjPoint, e2: ProjPoint) -> int:
    """Distance from a ball to the maximal path between two distinct ends."""
    return _dist_from_ends(v, *_path_ends(e1, e2))


def _member_test(shape: BranchShape):
    """The membership predicate of a shape, its per-shape work done once."""
    if isinstance(shape, InfiniteFoliage):
        if shape.end.is_infinity:
            return lambda v: v.r <= shape.level
        end = shape.end.value
        return lambda v: (v.r + shape.level
                          <= 2 * _val_sum_capped(v.center, end, v.r))
    if shape.stem_kind == "maxpath":
        finite, m = _path_ends(*shape.ends)
        return lambda v: _dist_from_ends(v, finite, m) <= shape.depth
    return lambda v: (min(tree_distance(v, u) for u in shape.stem)
                      <= shape.depth)


def shape_members(shape: BranchShape, window: Window) -> set[int]:
    """The keys of the predicted set in the window; every shape is convex,
    so it grows, each key tested as the vertex it decodes to."""
    test, vertex = _member_test(shape), window.vertex
    return set(grow(window,
                    lambda p, ks: [k for k in ks if test(vertex(k))]))


# -- fake distance --------------------------------------------------

def fake_distance(datum: Datum) -> int | float:
    """Twice the fake distance of the case table, -1/2 val(Delta /
    product of separable traces^2) shifted down by the jump of each
    ramified separable factor and up by the jump of each ramified
    inseparable one: an int, or -inf when Delta = 0."""
    delta = datum.checked_disc()
    if delta.is_zero:
        return -inf
    twice = -delta.lead
    for m in (datum.m1, datum.m2):
        if m.separable:
            twice += 2 * s_val(m.a)
        if m.kind == RAMIFIED_SEP:
            twice -= 2 * m.t
        elif m.kind == RAMIFIED_INSEP:
            twice += 2 * m.t
    return twice


# -- relative positions ---------------------------------------------
#
# Each class names the MeasuredShape kind it predicts (``kind``) and the
# word its wrong-kind message uses (``noun``); its fields are exactly
# the MeasuredShape fields the measurement has to reproduce.

@dataclass(frozen=True)
class Disjoint:
    kind = noun = "disjoint"
    distance: int

    def render(self) -> str:
        return f"disjoint, stem distance {self.distance}"


@dataclass(frozen=True)
class Overlap:
    kind, noun = "path", "overlap"
    length: int

    def render(self) -> str:
        return f"stems overlap in a path of length {self.length}"


@dataclass(frozen=True)
class SharedRay:
    kind = noun = "ray"

    def render(self) -> str:
        return "stems share a ray"


@dataclass(frozen=True)
class SharedMaxPath:
    kind = noun = "maxpath"

    def render(self) -> str:
        return "stems share a maximal path"


@dataclass(frozen=True)
class FoliageMeet:
    kind, noun = "blob", "foliage meet"
    diameter: int
    depth: int
    stem_is_edge: bool

    def render(self) -> str:
        stem = "edge" if self.stem_is_edge else "vertex"
        return (f"foliages meet: diameter {self.diameter}, "
                f"depth {self.depth}, {stem} stem")


@dataclass(frozen=True)
class FoliageContained:
    kind, noun = "contained", "containment"

    def render(self) -> str:
        return "one foliage contains the other"


RelPos = Disjoint | Overlap | SharedRay | SharedMaxPath | FoliageMeet | FoliageContained


def _commute(q1: Mat2, q2: Mat2) -> bool:
    """Whether q1 q2 = q2 q1, without building either product.

    In characteristic 2 the commutator q1 q2 + q2 q1 is [[x, y], [z, x]]
    with x = b1 c2 + b2 c1, y = b2 tr1 + b1 tr2 and z = c1 tr2 + c2 tr1:
    the diagonal products a1 a2 and d1 d2 cancel, so the two matrices
    commute exactly when these three vanish.
    """
    tr1, tr2 = trace(q1), trace(q2)
    return (s_add(s_mul(q1.b, q2.c), s_mul(q2.b, q1.c)).is_zero
            and s_add(s_mul(q2.b, tr1), s_mul(q1.b, tr2)).is_zero
            and s_add(s_mul(q1.c, tr2), s_mul(q2.c, tr1)).is_zero)


def predict_relpos(pair: PairConfig) -> RelPos:
    """Predict the stem configuration from the pair's datum (lambda, m1, m2).

    The matrices are read in exactly one row of the case table: Delta = 0
    with two split separable generators, where whether q1 and q2 commute
    decides between a shared maximal path and a shared ray.  So the
    position is a function of the datum and that one bit.
    """
    datum = pair.datum
    m1, m2, lam = datum.m1, datum.m2, datum.lam
    if m1.kind == REDUCIBLE_INSEP and m2.kind == REDUCIBLE_INSEP:
        if lam.is_zero:
            return FoliageContained()
        nl = s_val(lam)
        if nl < 0:
            return Disjoint(-nl)
        return FoliageMeet(nl, nl // 2, nl % 2 == 1)
    twice = fake_distance(datum)
    if twice == -inf:
        if m1.kind == REDUCIBLE_SEP and m2.kind == REDUCIBLE_SEP:
            if _commute(pair.q1, pair.q2):
                return SharedMaxPath()
            return SharedRay()
        lmin = min(stem_length_of_kind(m1.kind), stem_length_of_kind(m2.kind))
        return SharedRay() if lmin == inf else Overlap(lmin)
    return _finite_relpos(twice, datum)


def _finite_relpos(twice: int, datum: Datum) -> Disjoint | Overlap:
    """The finite rows of the case table at twice the fake distance:
    Disjoint(twice / 2) for twice > 0 (a ValueError if twice is odd),
    else Overlap(min(-twice, L1, L2))."""
    if twice > 0:
        if twice % 2:
            raise ValueError(f"positive fake distance {twice}/2 is not an "
                             "integer; no matrix pair realises this input")
        return Disjoint(twice // 2)
    return Overlap(min(-twice, stem_length_of_kind(datum.m1.kind),
                       stem_length_of_kind(datum.m2.kind)))


_FIELD_WORDS = {"length": "overlap length",
                "stem_is_edge": "stem vertex/edge parity"}

#: each one-sided measured kind: the field it bounds from below, and the
#: predicted kinds a window may have seen only part of as that kind
_ONE_SIDED = {"ray": ("length", {"path"}),
              "maxpath": ("length", {"path", "ray"}),
              "contained": ("diameter", {"blob"})}


def check_agreement(pred: RelPos,
                    meas: MeasuredShape) -> tuple[bool | None, str]:
    """Does a certified measurement corroborate a prediction?

    Returns (True, "ok") when it does, (False, why) when it contradicts
    the prediction and (None, why) when the window cannot tell.  The
    two-sided kinds (disjoint, path, blob) must match kind and fields.
    A one-sided kind (ray, maxpath, contained) says only that the shape
    reaches at least as far as the window saw: it matches its own kind,
    leaves a prediction it may be part of undetermined while the
    predicted length or diameter is at least the one seen, and
    contradicts one below it and every other kind.
    """
    if not meas.certified:
        return None, f"measurement uncertified: {meas.note or meas.kind}"
    if meas.kind in _ONE_SIDED and meas.kind != pred.kind:
        name, partial = _ONE_SIDED[meas.kind]
        seen = getattr(meas, name)
        want = getattr(pred, name, inf)  # inf: the prediction is unbounded
        predicted = pred.noun + ("" if want == inf else f" of {name} {want}")
        measured = f"{meas.kind}, visible {name} {seen}"
        if pred.kind in partial and want >= seen:
            return None, (f"window too small: measured {measured}; "
                          f"predicted {predicted}")
        return False, f"predicted {predicted}, measured {measured}"
    if meas.kind != pred.kind:
        return False, f"predicted {pred.noun}, measured {meas.kind}"
    for f in fields(pred):
        want, got = getattr(pred, f.name), getattr(meas, f.name)
        if want != got:
            return False, (f"{_FIELD_WORDS.get(f.name, f.name)} mismatch: "
                           f"predicted {want}, measured {got}")
    return True, "ok"

"""The Bruhat-Tits tree of PGL_2 over the series field, and branch oracles.

Vertices are balls B_z^[r]: a center z mod t^r and an integer level r.
The branch of an integral matrix q is the set of vertices whose maximal
order contains q.  A window, the ball of a radius around B_0^[0], is
walked on int keys (see ``Window``), and keys are the one vocabulary of
measurement: the oracle returns them, and every set a measurement reads
or compares is a set of keys.  ``Window.vertex`` decodes a key into a
``Vertex``, for the predictor's tests and for printing.  Balls are
geodesically convex, so distances inside a window are tree distances,
and a measured quantity is trusted only where the window boundary
provably cannot interfere.  A branch is a subtree, hence convex (Serre,
*Trees*), so it meets the window in a connected set: ``grow`` finds one
member by a scan in key order and walks through members from there,
touching the scan prefix, the members and their rim and nothing else.
``oracle_branch`` is ``grow`` with the membership test, one closure
over the matrix's packed rows, decided along each edge with a few shifts
and XORs; the valuation of the center and the entries' precisions are
numbers there, inf for the zero center and for an exact entry.  It never
consults a predicted shape and makes no ``Vertex``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import inf

from .mat2 import Mat2, det, trace
from .series import (Series, UndeterminedAtPrecision, _clmul, _lane_mul,
                     _make, s_add, s_render, s_val, s_zero)

_new, _set = object.__new__, object.__setattr__


def reduce_center(z: Series, r: int) -> Series:
    """z mod t^r as an exact series (z itself when it has no lane at or
    above r); needs z known at least mod t^r."""
    if z.prec is not None and z.prec < r:
        raise UndeterminedAtPrecision(
            f"center known mod t^{z.prec} but needed mod t^{r}")
    bits, n = z.bits, (r - z.lead) * z.field.tau
    if bits >> max(n, 0):
        bits = bits & (1 << n) - 1 if n > 0 else 0
    elif z.prec is None:
        return z
    return _make(z.field, z.lead, bits, None)


@dataclass(frozen=True)
class Vertex:
    """The ball B_z^[r], its center reduced mod t^r; the hash of
    (r, center), the one the dataclass would compute, is taken once."""

    r: int
    center: Series

    def __post_init__(self):
        _set(self, "center", reduce_center(self.center, self.r))
        _set(self, "_hash", hash((self.r, self.center)))

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        return f"B[{s_render(self.center)}]^{self.r}"

    def __repr__(self):
        return f"Vertex({self.render()})"


def _lowest(v: Vertex) -> int:
    """The lowest level on the geodesic from B_0^[0] to v."""
    return min(v.r, 0, v.center.lead) if v.center.bits else min(v.r, 0)


def tree_distance(v: Vertex, w: Vertex) -> int:
    """Path distance: (r1 - m) + (r2 - m) with m = min(r1, r2, val(z1+z2))."""
    m = min(v.r, w.r, s_val(s_add(v.center, w.center)))
    return (v.r - m) + (w.r - m)


#: the most vertices a window lists or a walk touches, and the most inside
#: a walked window's boundary: radius 18 at tau 1, 9 at tau 2, 7 at tau 3
MAX_WINDOW_VERTICES = 400_000


class WindowTooLarge(ValueError):
    """A walk would touch more than MAX_WINDOW_VERTICES vertices."""


def largest_radius(order: int) -> int:
    """The largest radius whose window holds at most MAX_WINDOW_VERTICES:
    the spheres of the (order + 1)-regular tree, summed to the limit."""
    size, sphere, radius = 1, order + 1, 0
    while size + sphere <= MAX_WINDOW_VERTICES:
        size += sphere
        sphere *= order
        radius += 1
    return radius


def _check_radius(fld, radius: int, listed: bool) -> None:
    """Refuse a ball (for a walk, its interior) over MAX_WINDOW_VERTICES."""
    if radius < 0:
        raise ValueError(f"window radius must be >= 0, got {radius}")
    limit = largest_radius(fld.order) + (not listed)
    if radius > limit:
        raise ValueError(
            f"a window of radius {radius} over F_(2^{fld.tau}) holds more "
            f"than {MAX_WINDOW_VERTICES:,} vertices"
            f"{'' if listed else ' inside its boundary'}; the largest "
            f"radius within that limit is {limit}")


class Window:
    """The vertices within ``radius`` of B_0^[0], walked on demand by key.

    A key is a 1, then a (tau + 1)-bit slot per step of the path from
    B_0^[0]: 0 a level up, 1 + c a level down adding c t^r to the center.
    The path climbs before it descends, so a key holds the level and the
    center and keys sort in breadth-first order.  The parent of k is
    k >> (tau + 1); a power of two is B_0^[-a], whose parent is down.
    ``vertex`` is the one decoder from a key to a ``Vertex``; ``key``
    encodes a vertex the predictor names, which may lie outside."""

    def __init__(self, fld, radius: int):
        self.field, self.radius = fld, radius
        self._W = fld.tau + 1
        self._edge = 1 << radius * self._W  # the first boundary key
        self._slots = tuple(range(fld.order + 1))
        self._axis = (0,) + self._slots[2:]
        self._root = Vertex(0, s_zero(fld))
        self._verts = {1: self._root}
        cap = MAX_WINDOW_VERTICES // (fld.order + 1)  # lists of order + 1
        self.nbrs = lru_cache(cap)(self._nbrs)

    def boundary_distance(self, k: int) -> int:
        """How far key k lies inside the boundary; negative outside."""
        return self.radius - (k.bit_length() - 1) // self._W

    def _touch(self, n: int) -> None:
        if n > MAX_WINDOW_VERTICES:
            raise WindowTooLarge(
                f"a walk in the window of radius {self.radius} touches "
                f"more than {MAX_WINDOW_VERTICES:,} vertices")

    def _children(self, k: int) -> list[int]:
        kk = k << self._W
        slots = (self._slots[1:] if k & k - 1 else
                 self._slots if k == 1 else self._axis)
        return [kk | s for s in slots]

    def _nbrs(self, k: int) -> list[int]:
        """k's neighbours in the window, in slot order; ``nbrs`` keeps them."""
        up = [k >> self._W] if k > 1 else []
        if k >= self._edge:
            return up
        kids = self._children(k)
        return up + kids if k & k - 1 else kids[:1] + up + kids[1:]

    def _scan(self):
        """Every key in breadth-first order, as (parent, children) pairs:
        (None, [1]) first, then the children of each key in turn."""
        yield None, [1]
        queue, seen = deque([1] if self.radius else []), 1
        while queue:
            kids = self._children(p := queue.popleft())
            self._touch(seen := seen + len(kids))
            yield p, kids
            if kids[0] < self._edge:
                queue += kids

    def vertex(self, k: int) -> Vertex:
        """The vertex of key k, made from its parent's on first use."""
        v = self._verts.get(k)
        if v is None:
            p = self.vertex(k >> self._W)
            z, r, slot = p.center, p.r, k & (1 << self._W) - 1
            if slot == 0:  # up from B_0^[r], whose center is 0
                r -= 2
            elif slot > 1:
                lead = z.lead if z.bits else r
                bits = z.bits ^ slot - 1 << (r - lead) * self.field.tau
                z = _make(self.field, lead, bits, None)
            v = _new(Vertex)  # the center is reduced already
            _set(v, "r", r + 1)
            _set(v, "center", z)
            _set(v, "_hash", hash((r + 1, z)))
            if len(self._verts) >= MAX_WINDOW_VERTICES:
                self._verts = {1: self._root}
            self._verts[k] = v
        return v

    def key(self, v: Vertex) -> int:
        """The key of v, in the window or not: up to the lowest level on
        the geodesic from B_0^[0], then down."""
        z, m, w = v.center, _lowest(v), self.field.tau
        k = 1 << -m * self._W
        for e in range(m, v.r):
            c = z.bits >> (e - z.lead) * w if e >= z.lead else 0
            k = k << self._W | 1 + (c & (1 << w) - 1)
        return k

    def _keys(self) -> list[int]:
        """Every key, in breadth-first order; refuses a ball of more than
        MAX_WINDOW_VERTICES vertices before scanning any."""
        _check_radius(self.field, self.radius, listed=True)
        return [k for _, ks in self._scan() for k in ks]

    @cached_property
    def vertices(self) -> list[Vertex]:
        """Every vertex, in the order of _keys."""
        return list(map(self.vertex, self._keys()))


def enumerate_window(fld, radius: int) -> Window:
    """The ball of ``radius`` around B_0^[0], built as it is read; raises
    ValueError for a negative radius or one too large to walk."""
    _check_radius(fld, radius, listed=False)
    return Window(fld, radius)


# -- the membership oracle ------------------------------------------

def _val_at_least(bits: int, base: int, prec, k: int, w: int) -> bool:
    """val >= k for lanes ``bits`` (lane 0 at t^base) known below ``prec``,
    inf if exact, as ``series.val_ge`` decides it: lanes below min(k, prec)."""
    m = k if prec >= k else prec
    n = (m - base) * w
    if n > 0 and bits & (1 << n) - 1:
        return False
    if m == k:
        return True
    raise UndeterminedAtPrecision(
        f"cannot certify val >= {k} from prec {prec}")


def _oracle_test(q: Mat2, window: Window):
    """``expand(p, ks)``: the keys among ks, neighbours of the tested key
    p (or [1] for p None), whose vertex holds q = [[A,B],[C,D]].

    g = [[z, t^r], [1, 0]] conjugates q to [[Cz+D, C t^r], [t^-r Q(z),
    A+Cz]], Q(z) = Cz^2 + (A+D)z + B.  ``verdict`` checks val(Cz+D) >= 0,
    val C >= -r, val(A+Cz) >= 0 and val Q(z) >= r on a state (r, val z,
    inf for z = 0, L = Cz+D packed from t^e1, Q(z) packed from t^e2) at
    the precisions ``s_mul`` and ``s_add`` would give, from the entries'
    read once as numbers (inf when exact), so truncated input raises
    where the four bounds on Series do.  An edge between levels e and e + 1
    adds c t^e to the center, so C c t^e to L and (A+D) c t^e + C c^2
    t^2e to Q(z): rows built once per matrix.  A vertex keeps its state
    if it is interior, as the scan reads it, or passes."""
    fld, radius, W = window.field, window.radius, window._W
    a, b, c, d = q.a, q.b, q.c, q.d
    if c.field is not fld and c.field != fld:
        raise ValueError("mixed residue fields")
    w = fld.tau
    lead = min(x.lead for x in (a, b, c, d))
    e1, e2 = lead - radius, lead - 2 * radius
    root = (0, inf, d.bits << (d.lead - e1) * w,  # z = 0: L = D, Q(z) = B
            b.bits << (b.lead - e2) * w)
    ad = a.bits << (a.lead - e1) * w ^ root[2]
    pa, pb, pc, pd = (inf if x.prec is None else x.prec for x in (a, b, c, d))
    exact = pa == pb == pc == pd == inf
    low = (1 << max(-e1, 0) * w) - 1  # the lanes of L below t^0
    rmin = -c.lead if c.bits else -inf  # val C >= -r
    mul = _clmul if w == 1 else partial(_lane_mul, fld)
    rows = [(mul(c.bits, x), mul(ad, x), mul(c.bits, mul(x, x)))
            for x in fld.elements()]
    levels = [None] * (2 * radius)
    state, edge, mask = {}, window._edge, (1 << W) - 1

    def verdict(s) -> bool:
        r, vz, ell, quad = s
        if exact:
            n = (r - e2) * w
            return (r >= rmin and not ell & low and not (ell ^ ad) & low
                    and not (n > 0 and quad & (1 << n) - 1))
        pcz = pc + vz
        p1 = min(pcz, pd)
        if not (_val_at_least(ell, e1, p1, 0, w)
                and _val_at_least(c.bits, c.lead, pc, -r, w)
                and _val_at_least(ell ^ ad, e1, min(pa, pcz), 0, w)):
            return False
        return _val_at_least(quad, e2, min(min(p1, pa) + vz, pb), r, w)

    def step(e):  # the rows of the edges between levels e and e + 1
        sl, sq = (c.lead + e - e1) * w, (c.lead + 2 * e - e2) * w
        levels[e + radius] = [(cx << sl, adx << (radius + e) * w ^ cxx << sq)
                              for cx, adx, cxx in rows]
        return levels[e + radius]

    def expand(p, ks):
        if p is None:
            s = state[1] = root
            return [1] if verdict(s) else []
        r, vz, ell, quad = state[p]
        out = []
        for k in ks:
            child = k >> W == p  # else k is the parent of p
            slot = (k if child else p) & mask
            if not slot:  # up or down along B_0^[-a], whose center is 0
                s = (r - 1 if child else r + 1, vz, ell, quad)
            else:  # the term c t^e comes or goes; vz moves if it is alone
                e = r if child else r - 1
                dl, dq = (levels[e + radius] or step(e))[slot - 1]
                s = (e + child, vz if slot == 1 else e if vz == inf
                     else inf if vz == e else vz, ell ^ dl, quad ^ dq)
            if k < edge:
                state[k] = s
            if verdict(s):
                state[k] = s
                out.append(k)
        return out
    return expand


def _bfs(window: Window, sources, inside) -> dict[int, int]:
    """Breadth-first depths from ``sources`` through keys ``inside``."""
    nbrs = window.nbrs
    depth = dict.fromkeys(sources, 0)
    queue = list(depth)
    for v in queue:  # the list grows as the walk finds vertices
        d = depth[v] + 1
        for u in nbrs(v):
            if u not in depth and inside(u):
                depth[u] = d
                queue.append(u)
    return depth


def grow(window: Window, expand) -> list[int]:
    """The sorted keys that pass, when those form a convex set (a branch,
    a tube, a horoball), which meets the window in a connected set.
    ``expand(p, ks)`` returns the keys of ks, neighbours of the tested key
    p (or [1] for p None), that pass; it sees the scan prefix, the set and
    its rim, once each.  On truncated input the answer is certified: a
    full scan tests every key tested here, and an untested key is cut off
    from the set by keys that fail for every completion, so it fails
    alike."""
    first = next((k for p, ks in window._scan() for k in ks
                  if expand(p, [k])), None)
    if first is None:
        return []
    # every key below first was scanned and failed; the rest are tested once
    found, tested, nbrs = [first], {first}, window.nbrs
    for i in found:  # the list grows as the walk finds members
        new = [j for j in nbrs(i) if j > first and j not in tested]
        if new:
            tested.update(new)
            window._touch(len(tested))
            found += expand(i, new)
    found.sort()
    return found


def oracle_branch(q: Mat2, window: Window) -> set[int]:
    """The keys of the window vertices that lie in the branch of q."""
    return set(grow(window, _oracle_test(q, window)))


# -- certified measurement, on sets of keys --------------------------

def _local_depths(window: Window, keys) -> list[int | float]:
    """Distance from each member key to the nearest in-window non-member
    (inf if there is none), walked inward from the rim; exact once <= the
    boundary distance (the certification rule used throughout)."""
    inside = set(keys).__contains__
    rim = {u for v in keys for u in window.nbrs(v) if not inside(u)}
    depth = _bfs(window, rim, inside)
    return [depth.get(v, inf) for v in keys]


@dataclass
class MeasuredBranch:
    """Certified summary of one oracle set: its deep core and depth."""

    core: set[int]
    depth: int | None
    certified: bool
    note: str = ""


def measure_branch(keys, window: Window, margin: int = 2) -> MeasuredBranch:
    """Extract the stem (deepest certified keys) of a thick shape.

    The maximal certified local depth D must be attained D + margin from
    the boundary, excluding the "shells" a cut makes; then the core is
    the stem clipped to radius - D, and depth = D - 1 is exact."""
    if not keys:
        return MeasuredBranch(set(), None, False, "empty set")
    # (key, local depth, boundary distance), in member order
    certified = [(k, d, bd) for k, d in zip(keys, _local_depths(window, keys))
                 if d <= (bd := window.boundary_distance(k))]
    if not certified:
        return MeasuredBranch(set(), None, False, "no certified vertex")
    dstar = max(d for _, d, _ in certified)
    guard = any(d == dstar and bd >= dstar + margin
                for _, d, bd in certified)
    core = {k for k, d, _ in certified if d == dstar}
    note = "" if guard else "depth maximum too close to boundary"
    return MeasuredBranch(core, dstar - 1, guard, note)


def set_distance(a: set[int], b: set[int], window: Window):
    """Min distance between two nonempty convex sets of keys, with its
    realizers: the last key in ``a`` and the first in ``b`` on the
    geodesic between any vertex of each, which holds their bridge; sets
    that meet are realized by their first common key in window order."""
    if a & b:
        return 0, min(a & b), min(a & b)
    x, y = next(iter(a)), next(iter(b))
    up, down = [x], [y]
    while x != y:  # the larger key is at least as far from the root
        if x > y:
            x >>= window._W
            up.append(x)
        else:
            y >>= window._W
            down.append(y)
    path = up + down[-2::-1]
    j = next(i for i, k in enumerate(path) if k in b)
    i = max(i for i in range(j) if path[i] in a)
    return j - i, path[i], path[j]


def set_diameter(members: set[int], window: Window):
    """Diameter of a connected set of keys and its realizers, by a double
    sweep from its first key inside the set, which holds every path."""
    def far(src):
        depth = _bfs(window, [src], members.__contains__)
        v = max(depth, key=depth.get)  # the first found at the largest depth
        return depth[v], v
    _, a = far(min(members))
    d, b = far(a)
    return d, a, b


def complete_in_window(members: set[int], window: Window,
                       margin: int = 2) -> bool:
    """Certificate that a convex member set does not continue past the
    cut: a member outside would force members at every boundary distance
    down to 0, so staying ``margin`` clear proves the window saw all."""
    return bool(members) and all(window.boundary_distance(k) >= margin
                                 for k in members)


@dataclass
class MeasuredShape:
    """What the window measurement actually saw of a stem intersection.

    kind is the ``kind`` of a predicted position class in ``geometry``;
    unset fields do not apply to it.  ``certified``: every number was
    pinned down inside the window per the margin rules.  ray, maxpath and
    contained are one-sided, as no window sees a shared end: ``length``
    (for contained, the ``diameter`` of the smaller set) is a lower bound.
    """

    kind: str
    certified: bool
    distance: int | None = None
    length: int | None = None
    diameter: int | None = None
    depth: int | None = None
    stem_is_edge: bool | None = None
    containment: str | None = None
    note: str = ""


def _measure_disjoint(a, b, window, margin, base_certified=True, dref=0):
    """Two disjoint sets: their distance, certified when both realizers
    stay dref + margin clear of the window boundary."""
    d, u, v = set_distance(a, b, window)
    ok = (base_certified and window.boundary_distance(u) >= dref + margin
          and window.boundary_distance(v) >= dref + margin)
    return MeasuredShape("disjoint", ok, distance=d)


def _measure_paths_meet(stem1, stem2, window, margin, base_certified, dref):
    """Compare two measured stems.  ``dref`` is the largest core depth
    among the non-foliage sides; cores are exact only out to boundary
    distance dref, so that is where "reaches the window cut" begins."""
    inter = stem1 & stem2
    if not inter:
        return _measure_disjoint(stem1, stem2, window, margin,
                                 base_certified, dref)
    if set_diameter(inter, window)[0] != len(inter) - 1:  # not a path
        return MeasuredShape("path", False, length=len(inter) - 1,
                             note="stem intersection is not a path")
    cut_ends = sum(window.boundary_distance(k) < dref + margin
                   and sum(map(inter.__contains__, window.nbrs(k))) <= 1
                   for k in inter)
    return MeasuredShape(("path", "ray", "maxpath")[min(cut_ends, 2)],
                         base_certified, length=len(inter) - 1)


def _measure_foliage_meet(s1, s2, window, margin):
    """Two foliage sets; a visible containment certifies only a lower
    bound, the diameter of the smaller set, on that of the true meet."""
    if s1 <= s2 or s2 <= s1:
        small, side = (s1, "1in2") if s1 <= s2 else (s2, "2in1")
        if not small:
            return MeasuredShape("contained", False, containment=side,
                                 note="a foliage misses the window")
        diam, _, _ = set_diameter(small, window)
        return MeasuredShape("contained", True, diameter=diam,
                             containment=side)
    inter = s1 & s2
    if not inter:
        return _measure_disjoint(s1, s2, window, margin)
    diam, _, _ = set_diameter(inter, window)
    mb = measure_branch(inter, window, margin)
    if mb.depth is None:
        return MeasuredShape("blob", False, diameter=diam,
                             note="no certified vertex in the meet")
    return MeasuredShape("blob", complete_in_window(inter, window, margin)
                         and mb.certified, diameter=diam, depth=mb.depth,
                         stem_is_edge=len(mb.core) == 2)


def _is_foliage(q: Mat2) -> bool:
    """Reducible inseparable, read off the matrix: the trace is exactly
    zero and the determinant, with no odd-exponent term, is a square."""
    return trace(q).is_zero and not any(e % 2 for e, _ in det(q).terms())


def measure_intersection(pair, window: Window, margin: int = 2,
                         sets=None) -> MeasuredShape:
    """Measure the relative position of the two stems of a generating pair:
    a foliage is its own stem, another branch has the core measure_branch
    gives.  ``sets`` are the two oracle key sets, if the caller built them."""
    if sets is None:
        sets = [oracle_branch(q, window) for q in (pair.q1, pair.q2)]
    s1, s2 = sets
    fol1, fol2 = _is_foliage(pair.q1), _is_foliage(pair.q2)
    if fol1 and fol2:
        return _measure_foliage_meet(s1, s2, window, margin)
    certified, dref, stems = True, 0, []
    for s, fol in ((s1, fol1), (s2, fol2)):
        mb = None if fol else measure_branch(s, window, margin)
        stems.append(s if fol else mb.core)
        if mb:
            certified = certified and mb.certified
            dref = dref if mb.depth is None else max(dref, mb.depth + 1)
    if not stems[0] or not stems[1]:
        return MeasuredShape("disjoint", False, note="missing stem")
    return _measure_paths_meet(stems[0], stems[1], window, margin,
                               certified, dref)


# -- export ---------------------------------------------------------

def dot_export(window: Window, groups: dict[str, set[int]] | None = None,
               title: str = "window") -> str:
    """GraphViz rendering of a window; groups map fill colors to key sets."""
    groups = groups or {}
    lines = [f'graph "{title}" {{', "  node [shape=circle, fontsize=8];"]
    pos = {k: i for i, k in enumerate(window._keys())}
    for k, i in pos.items():
        color = next((c for c, s in groups.items() if k in s), None)
        style = f', style=filled, fillcolor="{color}"' if color else ""
        lines.append(f'  n{i} [label="{window.vertex(k).render()}"{style}];')
    for k, i in pos.items():  # each edge from its lower end
        lines.extend(f"  n{i} -- n{pos[j]};" for j in window.nbrs(k)
                     if pos[j] > i)
    lines.append("}")
    return "\n".join(lines)

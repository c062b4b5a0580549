"""The Bruhat-Tits tree of PGL_2 over the series field, and branch oracles.

Vertices are balls B_z^[r]: a center z mod t^r and an integer level r.
The maximal order attached to B_z^[r] is g M_2(O) g^-1 for
g = [[z, t^r], [1, 0]], and the branch of an integral matrix q is the
set of vertices whose order contains q.  ``member`` evaluates that
containment exactly, on the packed lanes of the entries and the center;
everything else in this module is bookkeeping on a finite window of the
tree plus certified measurements on oracle sets.

Windows are balls around the base vertex B_0^[0], built by one
breadth-first search over packed centers: a child's center is its
parent's with one lane set.  The window is a tree, so every neighbour of
an expanded vertex other than the one it was found from is new, and the
search records each neighbour list by window position (``Window.nbrs``)
without looking a vertex up; a boundary vertex's only neighbour inside
is the vertex it was found from.  Balls are geodesically convex, so
graph distances measured inside a window agree with tree distances, and
a breadth-first search toward the complement of a member set
under-approximates nothing once it stays clear of the window boundary.
That is the whole certification story: a measured quantity is trusted
only where the boundary provably cannot interfere.

A branch is a subtree, hence convex (Serre, *Trees*), and so is the
window; their intersection is therefore connected in the window graph.
Every walk over the window runs on window positions, the only way the
window keeps its tables: the public functions take and return vertex
sets, translate them through ``Window.index`` once on entry and read
``Window.vertices`` on exit, and in between walk ``Window.nbrs`` on
ints.  ``grow`` scans the window for one vertex that passes a test and
walks only through passing vertices from there, testing each vertex
once; it returns the set in window order, as a full scan builds it.
``oracle_branch`` is ``grow`` with the membership test and never
consults a predicted shape.  The measurements are breadth-first
searches, ``_bfs``, that walk only inside the member set, except
``set_distance``, which has to cross non-members.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .mat2 import Mat2, det, trace
from .series import (Series, UndeterminedAtPrecision, _clmul, _lane_mul,
                     _make, _min_prec, s_add, s_render, s_val, s_zero)

INFINITE_DEPTH = 10 ** 9


def reduce_center(z: Series, r: int) -> Series:
    """z mod t^r as an exact series; needs z known at least mod t^r.

    The lanes of z below r - lead, masked; z itself when it is exact and
    has no lane at or above r.
    """
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
    """The ball B_z^[r].  The stored center is always reduced mod t^r.

    Vertices are set and dict keys throughout, so the hash of (r, center)
    -- the value the dataclass would compute -- is taken once, here.
    """

    r: int
    center: Series

    def __post_init__(self):
        object.__setattr__(self, "center", reduce_center(self.center, self.r))
        object.__setattr__(self, "_hash", hash((self.r, self.center)))

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        return f"B[{s_render(self.center)}]^{self.r}"

    def __repr__(self):
        return f"Vertex({self.render()})"


def tree_distance(v: Vertex, w: Vertex) -> int:
    """Path distance: (r1 - m) + (r2 - m) with m = min(r1, r2, val(z1+z2))."""
    m = min(v.r, w.r, s_val(s_add(v.center, w.center)))
    return (v.r - m) + (w.r - m)


#: the most vertices ``enumerate_window`` builds: every radius the
#: self-test uses fits (tau 1 up to radius 17, tau 2 up to 8, tau 3 up
#: to 6), and a larger request fails at once instead of filling memory
MAX_WINDOW_VERTICES = 400_000


@dataclass
class Window:
    """All vertices within ``radius`` of B_0^[0], with adjacency.

    ``vertices`` is in breadth-first order, B_0^[0] first, and ``index``
    maps each vertex to its position there.  The other tables are by
    position: ``nbrs[i]`` lists the positions of the neighbours of
    vertex i and ``dist[i]`` is its distance to B_0^[0].
    """

    radius: int
    vertices: list[Vertex]
    index: dict[Vertex, int] = dc_field(repr=False)
    nbrs: list[list[int]] = dc_field(repr=False)
    dist: list[int] = dc_field(repr=False)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.index

    def boundary_distance(self, v: Vertex) -> int:
        return self.radius - self.dist[self.index[v]]


def largest_radius(order: int) -> int:
    """The largest radius whose window holds at most MAX_WINDOW_VERTICES.

    The ball of radius r in the (q + 1)-regular tree, q = order, holds
    1 + (q + 1)(q^r - 1)/(q - 1) vertices; the spheres are summed until
    the total passes the limit, so this takes a few steps.
    """
    size, sphere, radius = 1, order + 1, 0
    while size + sphere <= MAX_WINDOW_VERTICES:
        size += sphere
        sphere *= order
        radius += 1
    return radius


def _check_window_size(fld, radius: int) -> None:
    """Refuse a radius whose ball holds more than MAX_WINDOW_VERTICES."""
    if radius < 0:
        raise ValueError(f"window radius must be >= 0, got {radius}")
    limit = largest_radius(fld.order)
    if radius > limit:
        raise ValueError(
            f"a window of radius {radius} over F_(2^{fld.tau}) holds more "
            f"than {MAX_WINDOW_VERTICES:,} vertices; the largest radius "
            f"within that limit is {limit}")


def enumerate_window(fld, radius: int) -> Window:
    """The ball of ``radius`` around B_0^[0], by one breadth-first search.

    Each vertex inside the ball is expanded once, into its neighbours in
    this order: the one up a level, then one down a level for each
    residue c in ``elements()`` order, with c XORed into the lane of t^r
    of the center.  All of them are new except the vertex it was found
    from, its parent, whose slot is known without a lookup:
    a vertex found as a child has its parent up, and a vertex found as
    the up neighbour of a child has it down, in the slot of that child's
    residue at the vertex's level.  A vertex on the boundary is not
    expanded: its one neighbour inside the ball is its parent.
    Raises ValueError for a negative radius or one whose ball holds more
    than MAX_WINDOW_VERTICES vertices, before building anything.
    """
    _check_window_size(fld, radius)
    w, residues = fld.tau, fld.elements()
    mask = (1 << w) - 1
    order = [Vertex(0, s_zero(fld))]
    depth = [0]
    parent = [-1]
    parent_slot = [-1]
    nbrs = []
    for i, v in enumerate(order):
        if depth[i] == radius:
            break
        d, p, ps = depth[i] + 1, parent[i], parent_slot[i]
        z, r = v.center, v.r
        lead = z.lead if z.bits else r
        shift = (r - lead) * w
        nb = []
        if ps == 0:
            nb.append(p)
        else:
            # the up neighbour is new, and this vertex is its child for
            # the residue of z at t^(r-1)
            nb.append(len(order))
            order.append(Vertex(r - 1, z))
            depth.append(d)
            parent.append(i)
            parent_slot.append(1 + (z.bits >> shift - w & mask
                                    if shift >= w else 0))
        for slot, c in enumerate(residues, 1):
            if slot == ps:
                nb.append(p)
                continue
            nb.append(len(order))
            order.append(Vertex(r + 1, _make(fld, lead, z.bits ^ c << shift,
                                             None) if c else z))
            depth.append(d)
            parent.append(i)
            parent_slot.append(0)
        nbrs.append(nb)
    nbrs.extend([p] if p >= 0 else [] for p in parent[len(nbrs):])
    index = {v: i for i, v in enumerate(order)}
    return Window(radius, order, index, nbrs, depth)


# -- the membership oracle ------------------------------------------

def _val_at_least(bits: int, base: int, prec, k: int, w: int) -> bool:
    """val >= k for the lanes ``bits`` (lane 0 at exponent ``base``) of a
    value known below ``prec``, as ``series.val_ge`` decides it.

    Lanes at or above prec may hold anything: only the lanes below
    min(k, prec) are read.  A nonzero one settles val < k; none settles
    val >= k if prec reaches k, and otherwise nothing is settled.
    """
    m = k if prec is None or prec >= k else prec
    n = (m - base) * w
    if n > 0 and bits & (1 << n) - 1:
        return False
    if m == k:
        return True
    raise UndeterminedAtPrecision(
        f"cannot certify val >= {k} from prec {prec}")


def member(q: Mat2, v: Vertex) -> bool:
    """Whether q lies in the maximal order of v.  Exact for exact input.

    Conjugating by g = [[z, t^r], [1, 0]] sends q = [[A,B],[C,D]] to
    [[Cz+D, C t^r], [t^-r (Cz^2+(A+D)z+B), A+Cz]], so membership is four
    valuation bounds, the interesting one being the characteristic
    quadratic of q evaluated at the center, read here as
    (A + Cz + D) z + B.

    Everything runs on the packed lanes of the entries and of z, with no
    Series built: products are carry-less at tau 1 and lane products
    above, sums are aligned XORs.  The center is exact, so multiplying
    by z shifts the precision by val(z), and each bound carries the
    precision ``s_mul`` and ``s_add`` would give it, so on truncated
    input this decides, or raises UndeterminedAtPrecision, exactly where
    the same four bounds on Series do.
    """
    z, r = v.center, v.r
    a, b, c, d = q.a, q.b, q.c, q.d
    fld, zb = z.field, z.bits
    if c.field is not fld and c.field != fld:
        raise ValueError("mixed residue fields")
    w = fld.tau
    if not zb:  # z = 0 exactly, and so are Cz and the z terms
        return (_val_at_least(d.bits, d.lead, d.prec, 0, w)
                and _val_at_least(c.bits, c.lead, c.prec, -r, w)
                and _val_at_least(a.bits, a.lead, a.prec, 0, w)
                and _val_at_least(b.bits, b.lead, b.prec, r, w))
    zl, cb, pc = z.lead, c.bits, c.prec
    czb = _clmul(cb, zb) if w == 1 else _lane_mul(fld, cb, zb)
    # Cz, A and D on one base exponent e
    czl = c.lead + zl
    e = min(czl, a.lead, d.lead)
    cz = czb << (czl - e) * w
    dd = d.bits << (d.lead - e) * w
    pcz = None if pc is None else pc + zl
    p1 = _min_prec(pcz, d.prec)
    if not _val_at_least(cz ^ dd, e, p1, 0, w):
        return False
    if not _val_at_least(cb, c.lead, pc, -r, w):
        return False
    aa = a.bits << (a.lead - e) * w
    if not _val_at_least(aa ^ cz, e, _min_prec(a.prec, pcz), 0, w):
        return False
    s, ps = aa ^ cz ^ dd, _min_prec(p1, a.prec)
    s = _clmul(s, zb) if w == 1 else _lane_mul(fld, s, zb)
    # (A + Cz + D) z sits on base e + zl, known below ps + zl; add B on
    # the lower of the two bases
    e4 = min(e + zl, b.lead)
    quad = s << (e + zl - e4) * w ^ b.bits << (b.lead - e4) * w
    pq = _min_prec(None if ps is None else ps + zl, b.prec)
    return _val_at_least(quad, e4, pq, r, w)


def _bfs(window: Window, sources, inside=None, stop=None):
    """Breadth-first walk over window positions from ``sources``, entering
    only positions the predicate ``inside`` accepts and ending at the
    first dequeued position the predicate ``stop`` accepts.  Returns the
    depths in discovery order, the parents and the stopping position
    (None if none stopped it).
    """
    nbrs = window.nbrs
    depth = dict.fromkeys(sources, 0)
    parent = {}
    queue = list(depth)
    for v in queue:  # the list grows as the walk finds vertices
        if stop is not None and stop(v):
            return depth, parent, v
        d = depth[v] + 1
        for u in nbrs[v]:
            if u not in depth and (inside is None or inside(u)):
                depth[u] = d
                parent[u] = v
                queue.append(u)
    return depth, parent, None


def grow(window: Window, test) -> set[Vertex]:
    """The window vertices that pass ``test``, when those form a convex set.

    The window is scanned in window order up to the first passing vertex,
    and the walk from there enters passing vertices only, so ``test``
    sees the scan prefix, the passing set and its rim, each vertex once.
    A convex set -- a branch, a tube around a stem, a horoball -- meets
    the convex window in a connected set, so the walk reaches all of it.

    On truncated input the answer is certified: every vertex tested here
    is tested by a full scan too, so this raises UndeterminedAtPrecision
    only where that scan would, and an untested vertex is cut off from the
    passing set by vertices that fail for every completion, so by
    convexity it fails for every completion alike.  The set is built in
    window order, as a full scan builds it, so the tie-breaks further down
    (the realizers of ``set_distance``) do not depend on the walk.
    """
    verts = window.vertices
    first = next((i for i, v in enumerate(verts) if test(v)), None)
    if first is None:
        return set()
    nbrs = window.nbrs
    # the scan prefix failed already; every other vertex is tested once
    tested = bytearray(len(verts))
    tested[:first + 1] = b"\1" * (first + 1)
    found = [first]
    for i in found:  # the list grows as the walk finds members
        for j in nbrs[i]:
            if not tested[j]:
                tested[j] = 1
                if test(verts[j]):
                    found.append(j)
    found.sort()
    return {verts[i] for i in found}


def oracle_branch(q: Mat2, window: Window) -> set[Vertex]:
    """The members of the window that lie in the branch of q."""
    return grow(window, lambda v: member(q, v))


# -- certified measurement ------------------------------------------

def _local_depths(window: Window, pos: list[int]) -> list[int]:
    """Distance from each member position in ``pos`` to the nearest
    in-window non-member.

    Values are measured in the window graph, hence over-estimates near
    the boundary; a value is exact once it is <= the vertex's distance
    to the boundary (the certification rule used throughout).  The walk
    runs inward from the rim (non-members next to a member) through
    members only, as every shortest path from a member to the rim does.
    """
    nbrs = window.nbrs
    inside = set(pos).__contains__
    rim = {u for v in pos for u in nbrs[v] if not inside(u)}
    depth, _, _ = _bfs(window, rim, inside=inside)
    return [depth.get(v, INFINITE_DEPTH) for v in pos]


@dataclass
class MeasuredBranch:
    """Certified summary of one oracle set: its deep core and depth."""

    core: set[Vertex]
    depth: int | None
    certified: bool
    note: str = ""


def measure_branch(members: set[Vertex], window: Window,
                   margin: int = 2) -> MeasuredBranch:
    """Extract the stem (deepest certified vertices) of a thick shape.

    The maximal certified local depth D must be attained at a vertex
    at least D + margin away from the window boundary; that excludes
    the spurious "shells" of uniformly deep vertices that a boundary
    cut manufactures.  The core is then exactly the true stem clipped
    to the ball of radius (radius - D), and depth = D - 1 is exact.
    """
    if not members:
        return MeasuredBranch(set(), None, False, "empty set")
    pos = [window.index[v] for v in members]
    ld = _local_depths(window, pos)
    radius, dist = window.radius, window.dist
    # (position, local depth, boundary distance), in member order
    certified = [(v, d, radius - dist[v]) for v, d in zip(pos, ld)
                 if d <= radius - dist[v]]
    if not certified:
        return MeasuredBranch(set(), None, False, "no certified vertex")
    dstar = max(d for _, d, _ in certified)
    guard = any(d == dstar and bd >= dstar + margin
                for _, d, bd in certified)
    verts = window.vertices
    core = {verts[v] for v, d, _ in certified if d == dstar}
    return MeasuredBranch(core, dstar - 1, guard,
                          "" if guard else "depth maximum too close to boundary")


def set_distance(a: set[Vertex], b: set[Vertex], window: Window):
    """Min distance between two disjoint vertex sets, with its realizers."""
    index = window.index
    ends = {index[v] for v in b}
    depth, parent, v = _bfs(window, [index[u] for u in a],
                            stop=ends.__contains__)
    if v is None:
        return None, None, None
    u = v
    while u in parent:  # the sources, and only they, have no parent
        u = parent[u]
    return depth[v], window.vertices[u], window.vertices[v]


def set_diameter(members: set[Vertex], window: Window):
    """Diameter of a connected set via double sweep, with its realizers.

    Both sweeps stay inside the set: a connected set in a tree holds the
    path between any two of its vertices, so distances, and the order in
    which each depth is found, are those of a sweep of the whole window.
    """
    index = window.index
    inside = {index[v] for v in members}.__contains__

    def far(src):
        depth, _, _ = _bfs(window, [src], inside=inside)
        v = max(depth, key=depth.get)  # the first found at the largest depth
        return depth[v], v
    _, a = far(index[next(iter(members))])
    d, b = far(a)
    return d, window.vertices[a], window.vertices[b]


def is_path_set(members: set[Vertex], window: Window) -> bool:
    """A nonempty connected set is a path iff its diameter is size - 1."""
    d, _, _ = set_diameter(members, window)
    return d == len(members) - 1


def complete_in_window(members: set[Vertex], window: Window,
                       margin: int = 2) -> bool:
    """Certificate that a convex member set does not continue past the cut.

    If the true set had a vertex outside, convexity would force members
    at every boundary distance down to 0, so staying ``margin`` clear of
    the cut proves the window saw everything.
    """
    return bool(members) and all(window.boundary_distance(v) >= margin
                                 for v in members)


@dataclass
class MeasuredShape:
    """What the window measurement actually saw of a stem intersection.

    kind is one of: disjoint, path, ray, maxpath, blob, contained, the
    same set the predicted position classes in ``geometry`` carry as
    their ``kind``; each class's fields name the fields compared here.
    Unset fields do not apply to the kind.  ``certified`` means every
    number reported was pinned down inside the window per the margin
    rules; an uncertified shape is a request for a larger window, not
    evidence of anything.

    disjoint, path and blob are two-sided: the window saw the whole
    intersection.  ray, maxpath and contained are one-sided, since no
    finite window sees a shared end: a ray has one end certified and one
    cut by the window, a maxpath both ends cut, and their ``length`` is
    the visible length, a lower bound; contained carries the visible
    ``diameter`` of the smaller set, a lower bound on that of the meet.
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
    if d is None:
        return MeasuredShape("disjoint", False,
                             note="no connecting path in window")
    ok = (base_certified
          and window.boundary_distance(u) >= dref + margin
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
    if not is_path_set(inter, window):
        return MeasuredShape("path", False, length=len(inter) - 1,
                             note="stem intersection is not a path")
    inside = {window.index[v] for v in inter}
    ends = [v for v in inter
            if sum(j in inside for j in window.nbrs[window.index[v]]) <= 1]
    cut_ends = [v for v in ends
                if window.boundary_distance(v) < dref + margin]
    if len(cut_ends) >= 2:
        return MeasuredShape("maxpath", base_certified, length=len(inter) - 1)
    if len(cut_ends) == 1:
        return MeasuredShape("ray", base_certified, length=len(inter) - 1)
    return MeasuredShape("path", base_certified, length=len(inter) - 1)


def _measure_foliage_meet(s1, s2, window, margin):
    """Two foliage sets.  A visible containment is one-sided: the true
    meet holds the smaller set, so its diameter is at least the one the
    window shows, and that lower bound is all that is certified."""
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
    """Measure the relative position of the two stems of a generating pair.

    Foliage branches (reducible inseparable generators) are their own
    stems; every other class has a deep core extracted by
    measure_branch.  The result's ``kind`` is the ``kind`` of the
    predicted position class, so check_agreement compares the two field
    by field.  ``sets`` substitutes the two oracle sets when the caller
    has built them for itself.
    """
    if sets is None:
        s1 = oracle_branch(pair.q1, window)
        s2 = oracle_branch(pair.q2, window)
    else:
        s1, s2 = sets
    fol1, fol2 = _is_foliage(pair.q1), _is_foliage(pair.q2)
    if fol1 and fol2:
        return _measure_foliage_meet(s1, s2, window, margin)
    certified = True
    dref = 0
    stems = []
    for s, fol in ((s1, fol1), (s2, fol2)):
        if fol:
            stems.append(s)
            continue
        mb = measure_branch(s, window, margin)
        stems.append(mb.core)
        certified = certified and mb.certified
        if mb.depth is not None:
            dref = max(dref, mb.depth + 1)
    if not stems[0] or not stems[1]:
        return MeasuredShape("disjoint", False, note="missing stem")
    return _measure_paths_meet(stems[0], stems[1], window, margin,
                               certified, dref)


# -- export ---------------------------------------------------------

def dot_export(window: Window, groups: dict[str, set[Vertex]] | None = None,
               title: str = "window") -> str:
    """GraphViz rendering of a window; groups map fill colors to sets."""
    groups = groups or {}
    lines = [f'graph "{title}" {{', "  node [shape=circle, fontsize=8];"]
    for i, v in enumerate(window.vertices):
        color = next((c for c, s in groups.items() if v in s), None)
        style = f', style=filled, fillcolor="{color}"' if color else ""
        lines.append(f'  n{i} [label="{v.render()}"{style}];')
    for i, nb in enumerate(window.nbrs):  # each edge from its lower end
        lines.extend(f"  n{i} -- n{j};" for j in nb if j > i)
    lines.append("}")
    return "\n".join(lines)

"""The Bruhat-Tits tree of PGL_2 over the series field, and branch oracles.

Vertices are balls B_z^[r]: a center z mod t^r and an integer level r.
The maximal order attached to B_z^[r] is g M_2(O) g^-1 for
g = [[z, t^r], [1, 0]], and the branch of an integral matrix q is the
set of vertices whose order contains q.  ``member`` evaluates that
containment exactly; everything else in this module is bookkeeping on a
finite window of the tree plus certified measurements on oracle sets.

Windows are balls around the base vertex B_0^[0], built by one
breadth-first search that records each inner vertex's neighbour list as
it expands it; a boundary vertex's only neighbour inside is the vertex
it was found from.  Centers are packed series, so a child's center is
its parent's with one lane set, and every adjacency list holds the
window's own vertex objects.  Balls are geodesically convex, so graph
distances measured inside a window agree with tree distances, and a
breadth-first search toward the complement of a member set
under-approximates nothing once it stays clear of the window boundary.
That is the whole certification story: a measured quantity is trusted
only where the boundary provably cannot interfere.

A branch is a subtree, hence convex (Serre, *Trees*), and so is the
window; their intersection is therefore connected in the window graph.
Every walk over the window is one breadth-first search, ``_bfs``, and
the convexity is used twice.  ``grow`` scans the window for one vertex
that passes a test and walks only through passing vertices from there;
it returns the set in window order, as a full scan builds it, by
sorting what it found on ``Window.index``.  ``oracle_branch`` is
``grow`` with the membership test and never consults a predicted shape.
The measurements walk only inside the member set, except
``set_distance``, which has to cross non-members.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

from .mat2 import Mat2, det, trace
from .series import (Series, UndeterminedAtPrecision, _make, s_add, s_mul,
                     s_render, s_val, s_zero, val_ge)

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


def vertex_neighbors(v: Vertex) -> list[Vertex]:
    """The 2^tau + 1 adjacent balls: one up a level, then 2^tau down, one
    for each residue c in ``elements()`` order.

    The center z of v is reduced mod t^r, so z + c t^r -- c XORed into
    lane r - lead -- is already reduced mod t^(r+1).
    """
    z, r = v.center, v.r
    fld = z.field
    lead = z.lead if z.bits else r
    shift = (r - lead) * fld.tau
    out = [Vertex(r - 1, z)]
    for c in fld.elements():
        out.append(Vertex(r + 1, _make(fld, lead, z.bits ^ c << shift, None)
                          if c else z))
    return out


@dataclass
class Window:
    """All vertices within ``radius`` of the base vertex, with adjacency.

    ``vertices`` is in breadth-first order, ``index`` maps each vertex to
    its position there, and every ``adj`` list holds the window's own
    vertex objects.
    """

    fld: object
    radius: int
    root: Vertex
    vertices: list[Vertex]
    dist_root: dict[Vertex, int]
    adj: dict[Vertex, list[Vertex]] = dc_field(repr=False, default_factory=dict)
    index: dict[Vertex, int] = dc_field(repr=False, default_factory=dict)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.dist_root

    def boundary_distance(self, v: Vertex) -> int:
        return self.radius - self.dist_root[v]


def enumerate_window(fld, radius: int) -> Window:
    """The ball of ``radius`` around B_0^[0], by one breadth-first search.

    Each vertex inside the ball is expanded once, and its neighbour list,
    all inside the ball, is recorded then.  A vertex on the boundary is
    not expanded: its one neighbour inside the ball is the vertex it was
    found from.
    """
    root = Vertex(0, s_zero(fld))
    order = [root]
    index = {root: 0}
    depth = [0]
    parent = [None]
    adj = {}
    for i, v in enumerate(order):
        if depth[i] == radius:
            break
        nbrs = []
        for w in vertex_neighbors(v):
            j = index.get(w)
            if j is None:
                j = index[w] = len(order)
                order.append(w)
                depth.append(depth[i] + 1)
                parent.append(v)
            nbrs.append(order[j])
        adj[v] = nbrs
    for v, p in zip(order[len(adj):], parent[len(adj):]):
        adj[v] = [] if p is None else [p]
    return Window(fld, radius, root, order, dict(zip(order, depth)), adj, index)


# -- the membership oracle ------------------------------------------

def member(q: Mat2, v: Vertex) -> bool:
    """Whether q lies in the maximal order of v.  Exact for exact input.

    Conjugating by g = [[z, t^r], [1, 0]] sends q = [[A,B],[C,D]] to
    [[Cz+D, C t^r], [t^-r (Cz^2+(A+D)z+B), A+Cz]], so membership is four
    valuation bounds, the interesting one being the characteristic
    quadratic of q evaluated at the center.
    """
    z, r = v.center, v.r
    cz = s_mul(q.c, z)
    if not val_ge(s_add(cz, q.d), 0):
        return False
    if not val_ge(q.c, -r):
        return False
    if not val_ge(s_add(q.a, cz), 0):
        return False
    quad = s_add(s_add(s_mul(cz, z), s_mul(s_add(q.a, q.d), z)), q.b)
    return val_ge(quad, r)


def _bfs(window: Window, sources, inside=None, stop=None):
    """Breadth-first walk from ``sources``, entering only vertices the
    predicate ``inside`` accepts and ending at the first dequeued vertex
    the predicate ``stop`` accepts.  Returns the depths in discovery
    order, the parents and the stopping vertex (None if none stopped it).
    """
    depth = dict.fromkeys(sources, 0)
    parent = {}
    queue = deque(depth)
    while queue:
        v = queue.popleft()
        if stop is not None and stop(v):
            return depth, parent, v
        for w in window.adj[v]:
            if w not in depth and (inside is None or inside(w)):
                depth[w] = depth[v] + 1
                parent[w] = v
                queue.append(w)
    return depth, parent, None


def grow(window: Window, test) -> set[Vertex]:
    """The window vertices that pass ``test``, when those form a convex set.

    The window is scanned in window order up to the first passing vertex,
    and the walk from there enters passing vertices only, so ``test``
    sees the scan prefix, the passing set and its rim.  A convex set -- a
    branch, a tube around a stem, a horoball -- meets the convex window in
    a connected set, so the walk reaches all of it.

    On truncated input the answer is certified: every vertex tested here
    is tested by a full scan too, so this raises UndeterminedAtPrecision
    only where that scan would, and an untested vertex is cut off from the
    passing set by vertices that fail for every completion, so by
    convexity it fails for every completion alike.  The set is built in
    window order, as a full scan builds it, so the tie-breaks further down
    (the realizers of ``set_distance``) do not depend on the walk.
    """
    first = next((v for v in window.vertices if test(v)), None)
    if first is None:
        return set()
    found, _, _ = _bfs(window, [first], inside=test)
    return set(sorted(found, key=window.index.__getitem__))


def oracle_branch(q: Mat2, window: Window) -> set[Vertex]:
    """The members of the window that lie in the branch of q."""
    return grow(window, lambda v: member(q, v))


# -- certified measurement ------------------------------------------

def local_depths(members: set[Vertex], window: Window) -> dict[Vertex, int]:
    """Distance from each member to the nearest in-window non-member.

    Values are measured in the window graph, hence over-estimates near
    the boundary; a value is exact once it is <= the vertex's distance
    to the boundary (the certification rule used throughout).  The walk
    runs inward from the rim (non-members next to a member) through
    members only, as every shortest path from a member to the rim does.
    """
    rim = {w for v in members for w in window.adj[v] if w not in members}
    depth, _, _ = _bfs(window, rim, inside=members.__contains__)
    return {v: depth.get(v, INFINITE_DEPTH) for v in members}


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
    ld = local_depths(members, window)
    certified = {v: d for v, d in ld.items()
                 if d <= window.boundary_distance(v)}
    if not certified:
        return MeasuredBranch(set(), None, False, "no certified vertex")
    dstar = max(certified.values())
    guard = any(d == dstar and window.boundary_distance(v) >= dstar + margin
                for v, d in certified.items())
    core = {v for v, d in certified.items() if d == dstar}
    return MeasuredBranch(core, dstar - 1, guard,
                          "" if guard else "depth maximum too close to boundary")


def set_distance(a: set[Vertex], b: set[Vertex], window: Window):
    """Min distance between two disjoint vertex sets, with its realizers."""
    depth, parent, v = _bfs(window, a, stop=b.__contains__)
    if v is None:
        return None, None, None
    u = v
    while u not in a:
        u = parent[u]
    return depth[v], u, v


def set_diameter(members: set[Vertex], window: Window):
    """Diameter of a connected set via double sweep, with its realizers.

    Both sweeps stay inside the set: a connected set in a tree holds the
    path between any two of its vertices, so distances, and the order in
    which each depth is found, are those of a sweep of the whole window.
    """

    def far(src):
        depth, _, _ = _bfs(window, [src], inside=members.__contains__)
        v = max(depth, key=depth.get)  # the first found at the largest depth
        return depth[v], v
    _, a = far(next(iter(members)))
    d, b = far(a)
    return d, a, b


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
    ends = [v for v in inter
            if sum(1 for w in window.adj[v] if w in inter) <= 1]
    cut_ends = [v for v in ends
                if window.boundary_distance(v) < dref + margin]
    if len(cut_ends) >= 2:
        return MeasuredShape("maxpath", base_certified, length=len(inter) - 1)
    if len(cut_ends) == 1:
        return MeasuredShape("ray", base_certified, length=len(inter) - 1)
    return MeasuredShape("path", base_certified, length=len(inter) - 1)


def _measure_foliage_meet(s1, s2, window, margin):
    if s1 <= s2 or s2 <= s1:
        side = "1in2" if s1 <= s2 else "2in1"
        return MeasuredShape("contained", bool(s1 and s2), containment=side)
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
    by field.  ``sets`` substitutes precomputed member sets for the
    oracle ones: oracle sets a caller keeps for itself, or predicted
    sets, on which the self-test dry-runs the measurement to decide
    whether the window is big enough before looking at the real thing.
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
    idx = window.index
    lines = [f'graph "{title}" {{', "  node [shape=circle, fontsize=8];"]
    for v, i in idx.items():
        color = next((c for c, s in groups.items() if v in s), None)
        style = f', style=filled, fillcolor="{color}"' if color else ""
        lines.append(f'  n{i} [label="{v.render()}"{style}];')
    seen = set()
    for v in window.vertices:
        for w in window.adj[v]:
            key = (min(idx[v], idx[w]), max(idx[v], idx[w]))
            if key not in seen:
                seen.add(key)
                lines.append(f"  n{key[0]} -- n{key[1]};")
    lines.append("}")
    return "\n".join(lines)

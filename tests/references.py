"""The one reference of each kernel the tests pin, each defined here only.

A reference is the plain computation a fast kernel replaced: coefficient
lists with the residue field's own ff_mul, ff_inv and ff_sqrt, loops of
Series operations, or a walk over the whole window.  None of them runs
the packed code it pins.  ``tests/test_references.py`` fails when a test
module defines one of these again, or a reference of its own.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache

from btbranch.defects import DefectResult, as_defect
from btbranch.existence import _norm_form
from btbranch.geometry import InfiniteFoliage
from btbranch.gf2 import (_poly_mulmod, ff_artin_schreier_root, ff_inv,
                          ff_mul, ff_sqrt, ff_trace)
from btbranch.mat2 import m_add, m_mul
from btbranch.series import (UndeterminedAtPrecision, _ones, s_add, s_div,
                             s_from_terms, s_monomial, s_mul, s_one, s_split,
                             s_square, s_truncate, s_val, s_zero, val_ge)
from btbranch.tree import Vertex, tree_distance


# -- the residue field ------------------------------------------------

def ff_pow(cfg, x, e):
    """ff_sqrt and ff_inv: square-and-multiply on the carry-less product."""
    r = 1
    while e:
        if e & 1:
            r = _poly_mulmod(r, x, cfg.modulus)
        x = _poly_mulmod(x, x, cfg.modulus)
        e >>= 1
    return r


# -- series on coefficient lists ---------------------------------------

def _canonical_reference(fld, lead, coeffs, prec):
    """Series: the list-popping canonicaliser, as (lead, coeffs, prec)."""
    coeffs = list(coeffs)
    if prec is not None:
        keep = prec - lead
        coeffs = coeffs[:max(keep, 0)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        lead += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        lead = 0
    for c in coeffs:
        if not 0 <= c < fld.order:
            raise ValueError(f"coefficient {c} outside F_(2^{fld.tau})")
    return lead, tuple(coeffs), prec


def _ref_min_prec(p, q):
    """s_add: the precision of a sum, the lower one, None for exact."""
    return q if p is None else p if q is None else min(p, q)


def _ref_add(a, b):
    """s_add: coefficient lists XORed term by term."""
    prec = _ref_min_prec(a.prec, b.prec)
    if not a.coeffs and not b.coeffs:
        return _canonical_reference(a.field, 0, (), prec)
    lo = min(a.lead, b.lead)
    hi = max(a.lead + len(a.coeffs), b.lead + len(b.coeffs))
    coeffs = [0] * (hi - lo)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            coeffs[s.lead - lo + i] ^= c
    return _canonical_reference(a.field, lo, coeffs, prec)


def _ref_val_lower_bound(a):
    """s_mul: the valuation a product's precision is counted from."""
    if a.coeffs:
        return a.lead
    return math.inf if a.prec is None else a.prec


def _ref_mul(a, b):
    """s_mul: the schoolbook product of coefficient lists."""
    fld = a.field
    if a.is_zero or b.is_zero:
        return _canonical_reference(fld, 0, (), None)
    precs = [p + _ref_val_lower_bound(other)
             for p, other in ((a.prec, b), (b.prec, a)) if p is not None]
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] ^= ff_mul(fld, x, y)
    return _canonical_reference(fld, a.lead + b.lead, out,
                                min(precs) if precs else None)


def _ref_inv(a, working_prec=64):
    """s_inv: the list recurrence, one coefficient per step."""
    fld = a.field
    if not a.coeffs:
        if a.prec is None:
            raise ZeroDivisionError("inverse of the zero series")
        raise UndeterminedAtPrecision(
            "inverse of a series that is 0 to known precision")
    u = a.coeffs
    if len(u) == 1 and a.prec is None:
        return _canonical_reference(fld, -a.lead, (ff_inv(fld, u[0]),), None)
    rel = working_prec if a.prec is None else min(a.prec - a.lead, working_prec)
    c0 = ff_inv(fld, u[0])
    out = [c0] + [0] * (rel - 1)
    for k in range(1, rel):
        acc = 0
        for i in range(1, min(k, len(u) - 1) + 1):
            acc ^= ff_mul(fld, u[i], out[k - i])
        out[k] = ff_mul(fld, c0, acc)
    return _canonical_reference(fld, -a.lead, out, -a.lead + rel)


def _ref_square(a):
    """s_square: each coefficient squared onto the even exponents."""
    out = [0] * (2 * len(a.coeffs))
    out[::2] = [ff_mul(a.field, c, c) for c in a.coeffs]
    return _canonical_reference(a.field, 2 * a.lead, out,
                                None if a.prec is None else 2 * a.prec)


def _ref_split(a):
    """s_split: square roots of the even and of the odd coefficients."""
    even = a.lead % 2
    precs = ((None, None) if a.prec is None
             else ((a.prec + 1) // 2, a.prec // 2))
    return tuple(
        _canonical_reference(a.field, (a.lead + start) // 2,
                             [ff_sqrt(a.field, c) for c in a.coeffs[start::2]],
                             prec)
        for start, prec in zip((even, 1 - even), precs))


_REF_SPREAD_BYTES = tuple(
    sum((b >> i & 1) << 2 * i for i in range(8)).to_bytes(2, "little")
    for b in range(256))


def _ref_square_bits(fld, x):
    """series._square_bits: a byte-table spread, then the lanes reduced."""
    spread = [_REF_SPREAD_BYTES[b]
              for b in x.to_bytes((x.bit_length() + 7) // 8, "little")]
    out = int.from_bytes(b"".join(spread), "little")
    w = fld.tau
    if w > 1 and out:
        ones = _ones(out.bit_length(), 2 * w)
        for d in range(2 * w - 2, w - 1, -1):
            out ^= (out >> d & ones) * (fld.modulus << d - w)
    return out


# -- square roots and defects, term by term ------------------------------

def _ref_sqrt(a):
    """s_sqrt: ff_sqrt of each even-exponent term."""
    odd = [e for e, _ in a.terms() if e % 2]
    if odd:
        raise ValueError(f"not a square: odd-exponent term at t^{odd[0]}")
    prec = None if a.prec is None else (a.prec + 1) // 2
    terms = {e // 2: ff_sqrt(a.field, c) for e, c in a.terms()}
    return s_from_terms(a.field, terms, prec)


def _ref_even_odd_root(b):
    """s_split on exact input: xi, eta with b = xi^2 + t eta^2."""
    fld = b.field
    even = {e: c for e, c in b.terms() if e % 2 == 0}
    odd = {e: c for e, c in b.terms() if e % 2}
    xi = s_from_terms(fld, {e // 2: ff_sqrt(fld, c) for e, c in even.items()})
    eta = s_from_terms(fld, {(e - 1) // 2: ff_sqrt(fld, c)
                             for e, c in odd.items()})
    return xi, eta


def _ref_derivative(b):
    """s_square(s_split(b)[1]): the odd terms, one exponent down."""
    return s_from_terms(b.field, {e - 1: c for e, c in b.terms() if e % 2},
                        None if b.prec is None else b.prec - 1)


def _ref_quad_defect(a):
    """quad_defect: the even terms' roots and the first odd exponent."""
    fld = a.field
    xi = s_from_terms(fld, {e // 2: ff_sqrt(fld, c)
                            for e, c in a.terms() if e % 2 == 0},
                      None if a.prec is None else (a.prec + 1) // 2)
    odd = [e for e, _ in a.terms() if e % 2]
    if odd:
        reduced = s_from_terms(fld, {e: c for e, c in a.terms() if e % 2},
                               a.prec)
        return DefectResult(odd[0], xi, reduced)
    if a.is_exact:
        return DefectResult(math.inf, xi, s_zero(fld))
    raise UndeterminedAtPrecision(
        f"no odd-exponent term below precision {a.prec}; square defect open")


def _ref_as_defect(a):
    """as_defect: a loop of Series monomials and s_add."""
    fld = a.field
    h = s_zero(fld)
    while True:
        if a.looks_zero:
            if a.is_exact or a.prec >= 1:
                return DefectResult(math.inf, h, a)
            raise UndeterminedAtPrecision(
                f"series vanishes to precision {a.prec}; defect needs it mod t")
        v = a.lead
        if v > 0:
            return DefectResult(math.inf, h, a)
        u = a.coeff(v)
        if v == 0:
            c = ff_artin_schreier_root(fld, u)
            if c is None:
                return DefectResult(0, h, a)
            h = s_add(h, s_monomial(fld, 0, c))
            a = s_add(a, s_monomial(fld, 0, u))
            continue
        if v % 2:
            return DefectResult(v, h, a)
        s = -v // 2
        step = s_monomial(fld, -s, ff_sqrt(fld, u))
        h = s_add(h, step)
        a = s_add(a, s_add(s_monomial(fld, v, u), step))


def _ref_solve_artin_schreier(a, working_prec):
    """as_root of as_defect: the fixed-point iteration r -> r^2 + rem."""
    d = as_defect(a)
    if d.ideal != math.inf:
        return None
    rem = d.reduced
    if rem.is_zero:
        return d.witness
    r = s_zero(a.field)
    for _ in range(working_prec + 2):
        nxt = s_truncate(s_add(s_mul(r, r), rem), working_prec)
        if nxt == r:
            break
        r = nxt
    else:
        raise AssertionError("Artin-Schreier iteration failed to stabilise")
    return s_add(d.witness, r)


def _ref_solve_quadratic(c, d, working_prec):
    """QuadPoly.roots: Y^2 + cY + d divided, reduced and rooted again."""
    if c.looks_zero:
        if not c.is_exact:
            raise UndeterminedAtPrecision(
                "linear coefficient 0 to precision only")
        xi, eta = s_split(d)
        return (xi, xi) if eta.looks_zero else None
    r = _ref_solve_artin_schreier(s_div(d, s_square(c), working_prec),
                                  working_prec)
    if r is None:
        return None
    y0 = s_mul(c, r)
    return y0, s_add(y0, c)


# -- the defect suite's grid minimiser -----------------------------------

_MASK_OFF = 16  # the bit of t^0 in a tau-1 mask; bit e + _MASK_OFF is t^e


def _ref_brute_ideal_vals(amask, grid, artin):
    """_grid_best_val at tau 1: each bitmask substitution, one by one."""
    # inf when a substitution kills the element outright or reaches the cap
    cap = 2 if artin else 7
    best = None
    for hh, hsq in grid:
        x = amask ^ (hh if artin else hsq)
        if x == 0:
            return math.inf
        v = (x & -x).bit_length() - 1 - _MASK_OFF
        if best is None or v > best:
            best = v
            if best >= cap:
                return math.inf
    return best


def _ref_enumerated_best_val(a, images, artin):
    """_grid_best_val: a plus each series image p(h) of a small grid."""
    best = None
    for image in images:
        x = s_add(a, image)
        if x.is_zero:
            return math.inf
        if best is None or x.lead > best:
            best = x.lead
    return math.inf if best >= (2 if artin else 7) else best


# -- the symbol and the bounded searches ---------------------------------

def _splits_reference(a, b, working_prec=64):
    """splits: the symbol with b inverted to all working_prec terms."""
    if b.is_zero:
        raise ValueError("the second symbol argument must be nonzero")
    db = s_square(s_split(b)[1])
    form = s_mul(a, s_div(db, b, working_prec))
    return ff_trace(a.field, form.coeff(-1)) == 0


def _small_elements(fld, lo, hi, max_terms=2):
    """existence._box_terms: each series of up to max_terms terms on lo..hi."""
    exps = range(lo, hi + 1)
    coeffs = range(1, fld.order)
    yield s_zero(fld)
    for n in range(1, max_terms + 1):
        for pos in itertools.combinations(exps, n):
            for cs in itertools.product(coeffs, repeat=n):
                yield s_from_terms(fld, dict(zip(pos, cs)))


def _monomials(u, v):
    """The searches' (u^2, u v, v^2), None for each with a zero coordinate."""
    uu = None if u.is_zero else s_mul(u, u)
    vv = None if v.is_zero else s_mul(v, v)
    uv = None if uu is None or vv is None else s_mul(u, v)
    return uu, uv, vv


def _form_at(a, b, c, monomials):
    """The searches' a u^2 + b u v + c v^2, from _monomials(u, v)."""
    # a term with a zero coordinate is left out: it carries no precision,
    # so the value is exact whenever the terms that remain are
    uu, uv, vv = monomials
    if uu is None:
        return s_zero(a.field) if vv is None else s_mul(c, vv)
    au2 = s_mul(a, uu)
    if vv is None:
        return au2
    return s_add(s_add(au2, s_mul(b, uv)), s_mul(c, vv))


def _form_search_zero_divisor(spec, lo, hi, max_terms):
    """search_zero_divisor: the norm form on series, plane by plane."""
    n, p = _norm_form(spec)
    fld = spec.lam.field
    for u, v in itertools.product(_small_elements(fld, lo, hi, max_terms),
                                  repeat=2):
        if u.is_zero and v.is_zero:
            continue
        monomials = _monomials(u, v)  # shared by the six planes
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            if _form_at(n[i], p[i, j], n[j], monomials).is_zero:
                x = [s_zero(fld)] * 4
                x[i], x[j] = u, v
                return tuple(x)
    return None


def _form_search_pair(spec, lo, hi, max_terms):
    """search_pair: s^2 + c s + k on series, per (y, w) and distinct x + z."""
    n, p = _norm_form(spec)
    fld = spec.lam.field
    one = s_one(fld)
    pool = list(_small_elements(fld, lo, hi, max_terms))
    nonzero = [s for s in pool if not s.is_zero]
    first = {}
    for x, z in itertools.product(pool, repeat=2):
        first.setdefault(s_add(x, z), (x, z))
    sums = [(s, _monomials(s, one), xz) for s, xz in first.items()]
    for y, w in itertools.product(nonzero, repeat=2):
        k = _form_at(n[1], p[1, 2], n[2], _monomials(y, w))
        c = s_add(s_mul(p[0, 1], y), s_mul(p[0, 2], w))
        for s, monomials, (x, z) in sums:
            value = k if s.is_zero else _form_at(n[0], c, k, monomials)
            if value.is_zero:
                return (x, y, z, w)
    return None


# -- the tree: vertices by s_from_terms, membership on Series ------------

def _ref_reduce_center(z, r):
    """tree.reduce_center: the terms of z below t^r."""
    if z.prec is not None and z.prec < r:
        raise UndeterminedAtPrecision(
            f"center known mod t^{z.prec} but needed mod t^{r}")
    return s_from_terms(z.field, {e: c for e, c in z.terms() if e < r})


def _ref_vertex_neighbors(v):
    """Window.nbrs: the neighbours of v, up first, then down by residue."""
    fld = v.center.field
    out = [Vertex(v.r - 1, _ref_reduce_center(v.center, v.r - 1))]
    for c in fld.elements():
        z = s_add(v.center, s_from_terms(fld, {v.r: c}))
        out.append(Vertex(v.r + 1, _ref_reduce_center(z, v.r + 1)))
    return out


@lru_cache(maxsize=None)
def _ref_enumerate_window(fld, radius):
    """enumerate_window: a search that builds every neighbour list afresh."""
    # (order, distances, adjacency), each by vertex
    root = Vertex(0, s_from_terms(fld, {}))
    dist = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in _ref_vertex_neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                queue.append(w)
    adj = {v: [w for w in _ref_vertex_neighbors(v) if w in dist]
           for v in order}
    return order, dist, adj


def _series_member(q, v, quad_shift=0, bound_c=True):
    """tree._oracle_test: whether q lies in the order of v, on Series."""
    # the mutation gate moves the quadratic bound by quad_shift and drops
    # the bound val(c) >= -r with bound_c False
    z, r = v.center, v.r
    cz = s_mul(q.c, z)
    if not val_ge(s_add(cz, q.d), 0):
        return False
    if bound_c and not val_ge(q.c, -r):
        return False
    if not val_ge(s_add(q.a, cz), 0):
        return False
    quad = s_add(s_add(s_mul(cz, z), s_mul(s_add(q.a, q.d), z)), q.b)
    return val_ge(quad, r + quad_shift)


# -- branch shapes and commutation ---------------------------------------

def _ref_val_capped(x, cap):
    """_val_sum_capped: min(cap, val(x)) of the built sum x, or a refusal."""
    if x.coeffs:
        return min(cap, x.lead)
    if x.prec is None or x.prec >= cap:
        return cap
    raise UndeterminedAtPrecision(
        f"valuation needed up to {cap}, series is 0 mod t^{x.prec}")


def _ref_dist_to_path_by_sums(v, e1, e2):
    """dist_to_path: each valuation read off a built sum center + end."""
    finite = [e for e in (e1, e2) if not e.is_infinity]
    if not finite:
        raise ValueError("a path needs two distinct ends")
    if len(finite) == 1:
        return v.r - _ref_val_capped(s_add(v.center, finite[0].value), v.r)
    gap = s_add(e1.value, e2.value)
    if gap.is_zero:
        raise ValueError("the two ends coincide")
    m = s_val(gap)
    best = None
    for e in finite:
        p = _ref_val_capped(s_add(v.center, e.value), v.r)
        d = v.r - p if p >= m else v.r + m - 2 * p
        best = d if best is None else min(best, d)
    return best


def _ref_shape_member_by_sums(shape, v):
    """_member_test: membership of v in a shape, from built sums."""
    if isinstance(shape, InfiniteFoliage):
        if shape.end.is_infinity:
            return v.r <= shape.level
        p = _ref_val_capped(s_add(v.center, shape.end.value), v.r)
        return v.r + shape.level <= 2 * p
    if shape.stem_kind == "maxpath":
        d = _ref_dist_to_path_by_sums(v, *shape.ends)
    else:
        d = min(tree_distance(v, u) for u in shape.stem)
    return d <= shape.depth


def _ref_commute_by_products(q1, q2):
    """_commute: whether every entry of q1 q2 + q2 q1 is exactly zero."""
    c = m_add(m_mul(q1, q2), m_mul(q2, q1))
    return all(x.is_zero for x in (c.a, c.b, c.c, c.d))


# -- walks over the whole window, on vertices ---------------------------

def _ref_adjacency(w):
    """Window.nbrs of every vertex, from the reference enumeration."""
    return _ref_enumerate_window(w.field, w.radius)[2]


def _local_depths_over_the_window(members, w):
    """tree._local_depths: a search inward from every non-member."""
    adj = _ref_adjacency(w)
    outside = [v for v in adj if v not in members]
    depth = {v: 0 for v in outside}
    queue = deque(outside)
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    return {v: depth.get(v, math.inf) for v in members}


def _set_distance_over_the_window(a, b, w):
    """tree.set_distance: a search from a, in window order, until it hits b."""
    adj = _ref_adjacency(w)
    depth = {v: 0 for v in sorted(a, key=w.key)}  # a in window order
    parent = {}
    queue = deque(depth)
    while queue:
        v = queue.popleft()
        if v in b:
            u = v
            while u not in a:
                u = parent[u]
            return depth[v], u, v
        for x in adj[v]:
            if x not in depth:
                depth[x] = depth[v] + 1
                parent[x] = v
                queue.append(x)
    return None, None, None


def _set_diameter_over_the_window(members, w):
    """tree.set_diameter: a double sweep from the first member, in order."""
    adj = _ref_adjacency(w)

    def far(src):
        depth = {src: 0}
        queue = deque([src])
        best = (0, src)
        while queue:
            v = queue.popleft()
            if v in members and depth[v] > best[0]:
                best = (depth[v], v)
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    queue.append(u)
        return best
    _, a = far(min(members, key=w.key))
    d, b = far(a)
    return d, a, b

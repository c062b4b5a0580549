from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import btbranch.geometry as geometry
import btbranch.tree as tree
from btbranch.defects import KINDS, REDUCIBLE_INSEP, classify
from btbranch.geometry import branch_shape, shape_members
from btbranch.gf2 import field
from btbranch.mat2 import (Mat2, companion, m_conj, m_mul, make_pair,
                           min_poly)
from btbranch.selftest import _PAIR_STRATEGIES
from btbranch.series import (Series, UndeterminedAtPrecision, s_monomial,
                             s_one, s_parse, s_random, s_truncate, s_zero)
from btbranch.tree import (MAX_WINDOW_VERTICES, Vertex, complete_in_window,
                           dot_export, enumerate_window, grow, measure_branch,
                           measure_intersection, oracle_branch, reduce_center,
                           set_diameter, set_distance, tree_distance)
from references import (_local_depths_over_the_window, _ref_enumerate_window,
                        _ref_reduce_center, _ref_vertex_neighbors,
                        _series_member, _set_diameter_over_the_window,
                        _set_distance_over_the_window)

F1 = field(1)
F2 = field(2)


def _v(r, text="0"):
    return Vertex(r, s_parse(F1, text))


# vertices and distance


def test_vertex_reduces_its_center_on_construction():
    assert Vertex(1, s_parse(F1, "t + t^3")).render() == "B[0]^1"
    assert Vertex(2, s_parse(F1, "t + t^3")).render() == "B[t]^2"
    assert Vertex(-2, s_parse(F1, "1 + t")).render() == "B[0]^-2"


def test_center_reduction_needs_enough_precision():
    with pytest.raises(UndeterminedAtPrecision):
        reduce_center(s_parse(F1, "t (mod t^2)"), 3)


def test_vertex_hashes_like_the_one_built_from_its_reduced_center():
    for fld, unreduced, reduced in ((F1, "t + t^3 + t^5", "t"),
                                    (F1, "1 + t + t^2 (mod t^3)", "1 + t"),
                                    (F2, "g + t + g*t^4", "g + t")):
        a = Vertex(2, s_parse(fld, unreduced))
        b = Vertex(2, s_parse(fld, reduced))
        assert a == b
        assert hash(a) == hash(b) == hash((2, s_parse(fld, reduced)))
        assert a in {b} and b in {a} and len({a, b}) == 1
        assert {a: "x"}[b] == "x" and {b: "y"}[a] == "y"
    assert hash(_v(2, "t")) != hash(_v(3, "t"))


def test_distance_between_hand_picked_vertices():
    assert tree_distance(_v(2, "t"), _v(1, "1 + t")) == 3
    assert tree_distance(_v(0), _v(0)) == 0
    assert tree_distance(_v(0), _v(1)) == 1
    assert tree_distance(_v(3, "t"), _v(3, "t + t^2")) == 2


def test_distance_is_a_metric_on_a_random_sample():
    rng = random.Random(5)
    cfg = F1
    verts = [Vertex(rng.randrange(-3, 4), s_random(cfg, rng, 0, 4))
             for _ in range(12)]
    for a in verts:
        assert tree_distance(a, a) == 0
        for b in verts:
            d = tree_distance(a, b)
            assert d == tree_distance(b, a)
            assert d >= 0
            assert (d == 0) == (a == b)
            for c in verts:
                assert d <= tree_distance(a, c) + tree_distance(c, b)


def _neighbours(w, v):
    """The neighbours of the window vertex v, read off ``w.nbrs``."""
    return [w.vertex(j) for j in w.nbrs(w.key(v))]


def _keys(w, vertices):
    return {w.key(v) for v in vertices}


def _verts(w, keys):
    return {w.vertex(k) for k in keys}


def _dist(w):
    """Each window vertex's distance to B_0^[0], in window order."""
    return [w.radius - w.boundary_distance(w.key(v)) for v in w.vertices]


def _adjacency(w):
    """Every neighbour list of the window, keyed by vertex."""
    return {v: _neighbours(w, v) for v in w.vertices}


def _rim(members, w):
    """The window vertices next to a member that are no members."""
    return {u for v in members for u in _neighbours(w, v)} - members


def test_neighbor_count_is_residue_field_size_plus_one():
    assert len(enumerate_window(F1, 1).nbrs(1)) == 3  # B_0^[0] has key 1
    assert len(enumerate_window(F2, 1).nbrs(1)) == 5


def test_neighbors_sit_at_distance_one():
    w = enumerate_window(F1, 3)
    assert len(_neighbours(w, _v(2, "t"))) == 3
    for n in _neighbours(w, _v(2, "t")):
        assert tree_distance(_v(2, "t"), n) == 1


# windows


@pytest.mark.parametrize("radius, count", [(0, 1), (1, 4), (3, 22), (8, 766)])
def test_window_size_over_the_two_element_field(radius, count):
    w = enumerate_window(F1, radius)
    assert len(w.vertices) == count
    # closed ball of radius N in a 3-regular tree
    assert count == 1 + 3 * (2 ** radius - 1)


def test_window_distances_and_boundary():
    w = enumerate_window(F1, 3)
    root = w.vertices[0]
    assert root.render() == "B[0]^0" and _dist(w)[0] == 0
    assert w.boundary_distance(w.key(root)) == 3
    assert all(d == tree_distance(root, v) <= 3
               for v, d in zip(w.vertices, _dist(w)))
    far = [v for v, d in zip(w.vertices, _dist(w)) if d == 3]
    assert all(w.boundary_distance(w.key(v)) == 0 for v in far)


def test_window_adjacency_matches_neighbor_enumeration():
    w = enumerate_window(F1, 2)
    for v in w.vertices:
        inside = [n for n in _ref_vertex_neighbors(v)
                  if w.boundary_distance(w.key(n)) >= 0]
        assert _neighbours(w, v) == inside


@pytest.mark.parametrize("tau, largest", [(1, 17), (2, 8), (3, 6), (16, 1)])
def test_window_size_is_capped(tau, largest):
    fld = field(tau)
    q = fld.order

    def ball(r):
        return 1 + (q + 1) * (q ** r - 1) // (q - 1)
    assert ball(largest) <= MAX_WINDOW_VERTICES < ball(largest + 1)
    # a window lists at most the limit; it walks one level further, since
    # a walk expands interior vertices only, and refuses any larger radius
    # before anything is built, even a huge one
    with pytest.raises(ValueError, match=f"largest radius .* is {largest}$"):
        enumerate_window(fld, largest + 1).vertices
    for radius in (largest + 2, 10 ** 9):
        with pytest.raises(ValueError, match=(
                f"inside its boundary; the largest radius .* is "
                f"{largest + 1}$")):
            enumerate_window(fld, radius)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        enumerate_window(fld, -1)


# the window against the reference enumeration


def _series_triple(z):
    return z.lead, z.coeffs, z.prec


@pytest.mark.parametrize("tau, radius", [(1, 0), (1, 8), (2, 4), (3, 3)])
def test_window_matches_the_reference_enumeration(tau, radius):
    w = enumerate_window(field(tau), radius)
    order, dist, adj = _ref_enumerate_window(field(tau), radius)
    assert w.vertices == order
    assert [(v.r, _series_triple(v.center), hash(v)) for v in w.vertices] == [
        (v.r, _series_triple(v.center), hash(v)) for v in order]
    assert _dist(w) == list(dist.values())
    assert list(_adjacency(w).items()) == list(adj.items())
    # keys ascend in window order, and a window that made none of these
    # vertices computes the same keys from the vertices themselves
    keys = [w.key(v) for v in w.vertices]
    assert keys == sorted(set(keys))
    fresh = enumerate_window(field(tau), radius)
    assert [fresh.key(v) for v in order] == keys
    assert [fresh.vertex(k) for k in reversed(keys)] == order[::-1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_reduce_center_matches_the_reference(tau, data):
    fld = field(tau)
    coeffs = data.draw(st.lists(st.integers(0, fld.order - 1), max_size=12))
    lead = data.draw(st.integers(-6, 6))
    top = lead + len(coeffs)
    prec = data.draw(st.one_of(st.none(), st.integers(lead - 2, top + 2)))
    z = Series(fld, lead, coeffs, prec)
    hi = top if prec is None else max(top, prec)
    r = data.draw(st.integers(lead - 3, hi + 3))

    def outcome(fn):
        try:
            out = fn(z, r)
        except UndeterminedAtPrecision as exc:
            return str(exc)
        return _series_triple(out)
    assert outcome(reduce_center) == outcome(_ref_reduce_center)


# membership, decided by the walk


def _verdict(fn, *args):
    """A result, or the class and message of the refusal."""
    try:
        return fn(*args)
    except UndeterminedAtPrecision as exc:
        return UndeterminedAtPrecision, str(exc)


def _walk_verdicts(q, w):
    """Each window key's verdict as the walk decides it from its parent,
    breadth first, keyed by vertex: a bool or the refusal."""
    expand = tree._oracle_test(q, w)
    return {w.vertex(k): _verdict(lambda: bool(expand(p, [k])))
            for p, ks in w._scan() for k in ks}


def _walked(q, v):
    """v's verdict as the walk decides it, one edge at a time along the
    path from B_0^[0], in a window that keeps the state of every vertex
    on the way (a refusal before v leaves that state in place)."""
    fld = v.center.field
    w = tree.Window(fld, 0)
    k = w.key(v)
    depth = (k.bit_length() - 1) // w._W
    w = tree.Window(fld, depth + 1)
    expand = tree._oracle_test(q, w)
    path = [k >> i * w._W for i in range(depth, -1, -1)]
    for p, c in zip([None] + path, path):
        got = _verdict(lambda: bool(expand(p, [c])))
    return got


def _entries(fld):
    """Exact and truncated entries, the precision anywhere from below the
    lead to past the last term, and the inexact zero among them."""
    return st.builds(
        lambda lead, coeffs, cut: Series(
            fld, lead, coeffs,
            None if cut is None else lead + cut),
        st.integers(-3, 3),
        st.lists(st.integers(0, fld.order - 1), max_size=5),
        st.one_of(st.none(), st.integers(-3, 7)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_packed_member_equals_the_series_reference(tau, data):
    fld = field(tau)
    entry = _entries(fld)
    r = data.draw(st.integers(-4, 6))  # negative, zero and positive levels
    lead = r - data.draw(st.integers(0, 6))  # lanes below r survive
    coeffs = data.draw(st.lists(st.integers(0, fld.order - 1), max_size=8))
    v = Vertex(r, Series(fld, lead, coeffs))
    q = Mat2(*(data.draw(entry) for _ in range(4)))
    if data.draw(st.booleans()):
        # g x g^-1 with x integral lies in the order of v (g as in the
        # _oracle_test docstring); a vertex with a center rarely passes all
        # four bounds otherwise
        g = Mat2(v.center, s_monomial(fld, r), s_one(fld), s_zero(fld))
        integral = st.builds(lambda lead, coeffs: Series(fld, lead, coeffs),
                             st.integers(0, 3), st.lists(
                                 st.integers(0, fld.order - 1), max_size=4))
        q = m_conj(g, Mat2(*(data.draw(integral) for _ in range(4))))
        cut = data.draw(st.one_of(st.none(), st.integers(-3, 8)))
        if cut is not None:
            q = Mat2(*(s_truncate(x, cut) for x in (q.a, q.b, q.c, q.d)))
    elif data.draw(st.booleans()):  # the inexact zero in the corner
        q = Mat2(q.a, q.b, Series(fld, 0, (), data.draw(st.integers(-3, 4))),
                 q.d)
    assert _walked(q, v) == _verdict(_series_member, q, v)


def test_member_refuses_a_matrix_over_another_field():
    q = companion(s_parse(F2, "g"), s_parse(F2, "t"))
    with pytest.raises(ValueError, match="mixed residue fields"):
        oracle_branch(q, enumerate_window(F1, 2))
    for v in (_v(0), _v(2, "t")):
        with pytest.raises(ValueError, match="mixed residue fields"):
            _series_member(q, v)


def test_nilpotent_membership_is_a_radius_cutoff():
    # [[0,t^s],[0,0]] belongs to every vertex of radius at most s
    for s in (0, 1, 2):
        q = Mat2(s_zero(F1), s_monomial(F1, s), s_zero(F1), s_zero(F1))
        got = [r for r in range(-3, 4) if _walked(q, Vertex(r, s_zero(F1)))]
        assert got == list(range(-3, s + 1))
        # the cutoff ignores the center
        assert _walked(q, Vertex(2, s_parse(F1, "t"))) == (s >= 2)


def test_membership_survives_an_integral_conjugation():
    g = Mat2(s_one(F1), s_parse(F1, "t"), s_zero(F1), s_one(F1))
    q = companion(s_parse(F1, "t"), s_parse(F1, "t"))
    qc = m_conj(g, q)
    w = enumerate_window(F1, 3)
    # the shear fixes the standard vertex, so the branch is unchanged
    assert oracle_branch(q, w) == oracle_branch(qc, w)


# the flood-fill oracle against a scan of the whole window


def _full_scan(q, w):
    """The keys of the members, in window order: every vertex decided
    from its parent, as the walk decides it; refuses where any vertex
    is undecided."""
    expand = tree._oracle_test(q, w)
    return {k for p, ks in w._scan() for k in expand(p, ks)}


def _companions_of_every_class(fld, rng):
    found = {}
    for _ in range(5000):
        a, b = s_random(fld, rng, 0, 2), s_random(fld, rng, 0, 3)
        if fld.tau >= 3 and rng.randrange(4) == 0:
            # over F_8 and up a drawn a is rarely 0, and the inseparable
            # classes need it; tau 1 and 2 draw as they always did
            a = s_zero(fld)
        found.setdefault(classify(a, b, 64).kind, companion(a, b))
        if len(found) == len(KINDS):
            return [found[k] for k in KINDS]
    raise AssertionError(f"only drew the classes {sorted(found)}")


def _rand_conjugator(fld, rng):
    """Shears with non-integral entries and t-power scalings: they move
    the branch around the window without leaving exact arithmetic."""
    one, zero = s_one(fld), s_zero(fld)
    g = Mat2(one, zero, zero, one)
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            g = m_mul(g, Mat2(one, s_random(fld, rng, -2, 2), zero, one))
        elif kind == 1:
            g = m_mul(g, Mat2(one, zero, s_random(fld, rng, -2, 2), one))
        else:
            g = m_mul(g, Mat2(s_monomial(fld, rng.choice((-1, 1))),
                              zero, zero, one))
    return g


def _conjugated_companions(tau, seed):
    fld = field(tau)
    rng = random.Random(seed)
    # about half the conjugates miss the small tau-3 window, so draw more
    per = 3 if tau < 3 else 7
    out = []
    for q in _companions_of_every_class(fld, rng):
        out.append(q)
        out.extend(m_conj(_rand_conjugator(fld, rng), q) for _ in range(per))
    return out


def _count_members(monkeypatch):
    """The keys the oracle tests, as it tests them."""
    calls = []
    real = tree._oracle_test

    def counting(q, w):
        expand = real(q, w)

        def counted(p, ks):
            calls.extend(ks)
            return expand(p, ks)
        return counted
    monkeypatch.setattr(tree, "_oracle_test", counting)
    return calls


_WINDOWS = [(1, 6), (2, 4), (3, 3)]


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_packed_member_equals_the_series_reference_on_a_window(tau, radius):
    w = enumerate_window(field(tau), radius)
    refused = 0
    for q in _conjugated_companions(tau, seed=90 + tau):
        cut = Mat2(*(s_truncate(x, 2) for x in (q.a, q.b, q.c, q.d)))
        for qt in (q, cut):
            for v, got in _walk_verdicts(qt, w).items():
                assert got == _verdict(_series_member, qt, v)
                refused += isinstance(got, tuple)
    assert refused


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_flood_fill_oracle_equals_the_full_scan(tau, radius):
    w = enumerate_window(field(tau), radius)
    nonempty = 0
    for q in _conjugated_companions(tau, seed=10 + tau):
        got = oracle_branch(q, w)
        assert got == _full_scan(q, w)
        assert list(got) == list(_full_scan(q, w))  # the same set order
        nonempty += bool(got)
    assert nonempty >= 10


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_flood_fill_tests_members_and_their_rim_only(tau, radius,
                                                     monkeypatch):
    w = enumerate_window(field(tau), radius)
    qs = _conjugated_companions(tau, seed=20 + tau)
    want = [_full_scan(q, w) for q in qs]
    calls = _count_members(monkeypatch)
    for q, members in zip(qs, want):
        del calls[:]
        assert oracle_branch(q, w) == members
        if members:
            members = _verts(w, members)
            rim = _rim(members, w)
            assert len(calls) <= w.vertices.index(min(
                members, key=w.vertices.index)) + len(members) + len(rim)
            assert len(set(calls)) == len(calls)  # each vertex once
        else:
            assert len(calls) == len(w.vertices)


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_scalar_and_non_integral_matrices(tau, radius, monkeypatch):
    fld = field(tau)
    w = enumerate_window(fld, radius)
    x = s_parse(fld, "1 + t")
    zero = s_zero(fld)
    scalar = Mat2(x, zero, zero, x)
    assert (oracle_branch(scalar, w) == _keys(w, w.vertices)
            == _full_scan(scalar, w))
    for q in (companion(s_parse(fld, "t^-1"), zero),
              Mat2(s_monomial(fld, -1), zero, zero, s_monomial(fld, -1))):
        assert _full_scan(q, w) == set()
        calls = _count_members(monkeypatch)
        assert oracle_branch(q, w) == set()
        assert len(calls) == len(w.vertices)
        monkeypatch.undo()


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_branch_scaled_out_of_the_window_is_empty(tau, radius, monkeypatch):
    fld = field(tau)
    w = enumerate_window(fld, radius)
    one, zero = s_one(fld), s_zero(fld)
    far = Mat2(s_monomial(fld, radius + 3), zero, zero, one)
    for q in _companions_of_every_class(fld, random.Random(30 + tau)):
        if q.d.is_zero:  # the inseparable ones reach every level
            continue
        moved = m_conj(far, q)
        assert _full_scan(moved, w) == set()
        calls = _count_members(monkeypatch)
        assert oracle_branch(moved, w) == set()
        assert len(calls) == len(w.vertices)
        monkeypatch.undo()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndeterminedAtPrecision:
        return UndeterminedAtPrecision


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_flood_fill_on_truncated_input_is_certified(tau, radius):
    w = enumerate_window(field(tau), radius)
    decided = refused = 0
    for q in _conjugated_companions(tau, seed=40 + tau):
        exact = _full_scan(q, w)
        for prec in range(2, 9):
            qt = Mat2(*(s_truncate(x, prec) for x in (q.a, q.b, q.c, q.d)))
            flood = _outcome(oracle_branch, qt, w)
            full = _outcome(_full_scan, qt, w)
            if flood is UndeterminedAtPrecision:
                # never refuses where the full scan decides
                assert full is UndeterminedAtPrecision
                refused += 1
                continue
            if full is not UndeterminedAtPrecision:
                assert flood == full
            # the exact matrix is one completion of the truncated one
            assert flood == exact
            decided += 1
    assert decided and refused


# the walk decides each vertex from its neighbour, as the reference does


def _integral_entries(fld):
    return st.builds(lambda lead, coeffs: Series(fld, lead, coeffs),
                     st.integers(0, 3),
                     st.lists(st.integers(0, fld.order - 1), max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_the_walk_decides_every_vertex_as_member_does(tau, data):
    fld = field(tau)
    q = Mat2(*(data.draw(_integral_entries(fld)) for _ in range(4)))
    cut = data.draw(st.one_of(st.none(), st.integers(4, 64)))
    if cut is not None:
        q = Mat2(*(s_truncate(x, cut) for x in (q.a, q.b, q.c, q.d)))
    w = enumerate_window(fld, {1: 6, 2: 3, 3: 2}[tau])
    expand = tree._oracle_test(q, w)

    def walk(p, k):
        return bool(expand(p, [k]))
    kept = []
    for p, ks in w._scan():  # each vertex from its parent, down the tree
        for k in ks:
            got = _verdict(walk, p, k)
            assert got == _verdict(_series_member, q, w.vertex(k))
            if k < w._edge or got is True:  # the states the walk keeps
                kept.append(k)
    for k in kept[1:]:  # and each parent from its child, up the tree
        up = k >> w._W
        assert _verdict(walk, k, up) == _verdict(_series_member, q,
                                                 w.vertex(up))


# predicted sets grow like oracle sets


def _full_shape_scan(shape, w):
    """The keys of the members, in window order."""
    test = geometry._member_test(shape)
    return {w.key(v) for v in w.vertices if test(v)}


def _shapes(tau, seed, precs):
    out = []
    for q in _conjugated_companions(tau, seed):
        for prec in precs:
            try:
                out.append(branch_shape(q, prec))
            except UndeterminedAtPrecision:
                pass
    return out


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_grown_predicted_set_equals_the_full_scan(tau, radius):
    w = enumerate_window(field(tau), radius)
    for seed in (50 + tau, 110 + tau):
        nonempty = 0
        for shape in _shapes(tau, seed, (64,)):
            got = shape_members(shape, w)
            assert got == _full_shape_scan(shape, w)
            assert list(got) == list(_full_shape_scan(shape, w))
            # and grow on the plain membership test finds the same keys
            test = geometry._member_test(shape)
            assert grow(w, lambda p, ks: [k for k in ks
                                          if test(w.vertex(k))]) == sorted(got)
            nonempty += bool(got)
        assert nonempty >= 10


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_grown_predicted_set_on_truncated_shapes_refuses_like_the_scan(
        tau, radius):
    w = enumerate_window(field(tau), radius)
    decided = refused = 0
    for shape in _shapes(tau, 60 + tau, (2, 3, 4, 6)):
        want = _outcome(_full_shape_scan, shape, w)
        got = _outcome(shape_members, shape, w)
        assert got == want
        if want is UndeterminedAtPrecision:
            refused += 1
        else:
            assert list(got) == list(want)
            decided += 1
    assert decided and refused


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_grown_predicted_set_tests_members_and_their_rim_only(
        tau, radius, monkeypatch):
    w = enumerate_window(field(tau), radius)
    shapes = _shapes(tau, 70 + tau, (64,))
    want = [_full_shape_scan(shape, w) for shape in shapes]
    calls = []
    real = geometry._member_test

    def counting(shape):
        test = real(shape)

        def counted(v):
            calls.append(v)
            return test(v)
        return counted
    monkeypatch.setattr(geometry, "_member_test", counting)
    for shape, members in zip(shapes, want):
        del calls[:]
        assert shape_members(shape, w) == members
        if members:
            members = _verts(w, members)
            rim = _rim(members, w)
            assert len(calls) <= w.vertices.index(min(
                members, key=w.vertices.index)) + len(members) + len(rim)
            assert len(set(calls)) == len(calls)  # each vertex once
        else:
            assert len(calls) == len(w.vertices)


# the member-only walks against walks over the whole window


def _local_depths(members, w):
    """The measured local depths, keyed by vertex."""
    keys = [w.key(v) for v in members]
    return dict(zip(members, tree._local_depths(w, keys)))


def _set_diameter(members, w):
    d, a, b = set_diameter(_keys(w, members), w)
    return d, w.vertex(a), w.vertex(b)


def _set_distance(a, b, w):
    d, u, v = set_distance(_keys(w, a), _keys(w, b), w)
    return (d, None, None) if d is None else (d, w.vertex(u), w.vertex(v))


def _oracle_sets_and_cores(w, seed):
    """The oracle sets of a seed's companions, each checked against the
    reference membership on every window vertex, and their cores."""
    sets = []
    for q in _conjugated_companions(w.field.tau, seed):
        members = oracle_branch(q, w)
        assert members == {w.key(v) for v in w.vertices
                           if _series_member(q, v)}
        if members:
            sets.append(_verts(w, members))
            core = measure_branch(members, w).core
            if core:
                sets.append(_verts(w, core))
    return sets


@pytest.mark.parametrize("tau, radius", _WINDOWS)
def test_member_only_walks_equal_the_window_walks(tau, radius):
    w = enumerate_window(field(tau), radius)
    for seed in (80 + tau, 100 + tau):
        sets = _oracle_sets_and_cores(w, seed)
        assert len(sets) >= 20
        for members in sets:
            got = _local_depths(members, w)
            assert list(got.items()) == list(
                _local_depths_over_the_window(members, w).items())
            assert (_set_diameter(members, w)
                    == _set_diameter_over_the_window(members, w))
        disjoint = 0
        for a in sets:
            for b in sets:
                assert _set_distance(a, b, w) == (
                    _set_distance_over_the_window(a, b, w))
                disjoint += not a & b
        assert disjoint >= 20


# measurement


def test_split_diagonal_branch_is_the_central_line():
    w = enumerate_window(F1, 4)
    q = Mat2(s_one(F1), s_zero(F1), s_zero(F1), s_zero(F1))
    mem = oracle_branch(q, w)
    assert mem == _keys(w, {Vertex(r, s_zero(F1)) for r in range(-4, 5)})
    diam, a, b = _set_diameter(_verts(w, mem), w)
    assert diam == 8 == len(mem) - 1  # a path
    assert {a.r, b.r} == {-4, 4}
    m = measure_branch(mem, w)
    assert m.certified and m.depth == 0
    assert m.core == {k for k in mem if w.boundary_distance(k) >= 1}


def test_ramified_branch_measures_as_a_short_edge():
    w = enumerate_window(F1, 4)
    mem = oracle_branch(companion(s_parse(F1, "t"), s_parse(F1, "t")), w)
    assert {w.vertex(k).render() for k in mem} == {"B[0]^0", "B[0]^1"}
    m = measure_branch(mem, w)
    assert m.certified and m.depth == 0 and m.core == mem


def test_set_distance_between_disjoint_lines():
    w = enumerate_window(F1, 3)
    a = {Vertex(r, s_zero(F1)) for r in range(-3, 1)}
    b = {Vertex(r, s_zero(F1)) for r in range(2, 4)}
    d, va, vb = _set_distance(a, b, w)
    assert d == 2 and va.r == 0 and vb.r == 2


def test_complete_in_window_rejects_a_set_touching_the_rim():
    w = enumerate_window(F1, 3)
    rim = {v for v in w.vertices if w.boundary_distance(w.key(v)) == 0}
    assert not complete_in_window(_keys(w, rim), w)
    assert complete_in_window({1}, w)  # B_0^[0]


def _conjugated_nilpotent_pair(corner):
    n = Mat2(s_zero(F1), s_one(F1), s_zero(F1), s_zero(F1))
    g = Mat2(s_one(F1), s_zero(F1), s_parse(F1, corner), s_one(F1))
    return make_pair(n, m_conj(g, n), 64)


def test_two_foliages_meeting_in_a_small_blob():
    # pairing value t^2, so the meet has diameter 2 around the root
    pair = _conjugated_nilpotent_pair("t")
    shape = measure_intersection(pair, enumerate_window(F1, 8))
    assert shape.certified
    assert shape.kind == "blob"
    assert shape.diameter == 2 and shape.depth == 1
    assert shape.stem_is_edge is False


def test_two_foliages_pushed_apart():
    pair = _conjugated_nilpotent_pair("t^-2")
    shape = measure_intersection(pair, enumerate_window(F1, 8))
    assert shape.certified
    assert shape.kind == "disjoint" and shape.distance == 4


def test_uncertified_when_the_window_is_too_tight():
    shape = measure_intersection(_conjugated_nilpotent_pair("t^-2"),
                                 enumerate_window(F1, 4))
    assert not shape.certified


# independence from the predictor


def test_tree_imports_nothing_from_the_predictor():
    source = Path(tree.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            # "from .defects import x" and "from . import defects" alike
            imported.update(f"{node.module or ''}.{alias.name}"
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert any("mat2" in name.split(".") for name in imported)
    for name in imported:
        assert not {"defects", "geometry"} & set(name.split(".")), name


def test_tree_never_reads_the_matrix_memo():
    # mat2 keeps each Mat2's trace and determinant on it, and
    # defects.classify keeps every polynomial it classified; the oracle
    # computes trace and determinant afresh and never looks in either,
    # nor reads a root off a classification or reduces a defect for one.
    # Nor does it read the datum a PairConfig carries: the prediction's
    # inputs are not the measurement's
    names = set()
    for node in ast.walk(ast.parse(Path(tree.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"min_poly", "make_pair", "_trace_det", "_min_poly",
                        "__dict__", "classify", "as_defect", "as_root",
                        "classified_roots", "as_argument", "quad_defect",
                        "_classify", "_roots", "CLASSIFY_MEMO_SIZE",
                        "datum", "Datum", "disc", "lam", "m1", "m2",
                        "roots", "algebra_spec"}


@pytest.mark.parametrize("tau", (1, 2))
def test_foliage_read_off_the_matrix_is_the_inseparable_reducible_kind(tau):
    fld = field(tau)
    rng = random.Random(tau)
    state = {"kind_pair": 0, "meet_depth": 0, "second_kind": 0}
    seen = []
    idx = 0
    while len(seen) < 800:
        raw = _PAIR_STRATEGIES[idx % len(_PAIR_STRATEGIES)](rng, fld, 64,
                                                            state)
        idx += 1
        for q in raw or ():
            foliage = min_poly(q).kind == REDUCIBLE_INSEP
            assert tree._is_foliage(q) == foliage, q
            seen.append(foliage)
    assert 0 < sum(seen) < len(seen)


# export


def test_dot_export_mentions_every_vertex_once():
    w = enumerate_window(F1, 2)
    mem = oracle_branch(companion(s_parse(F1, "t"), s_parse(F1, "t")), w)
    out = dot_export(w, {"lightblue": mem}, title="demo")
    assert out.startswith('graph "demo" {')
    assert out.rstrip().endswith("}")
    for v in w.vertices:
        assert out.count(f'"{v.render()}"') >= 1
    assert out.count("lightblue") == len(mem)

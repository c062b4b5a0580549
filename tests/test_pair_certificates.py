"""The pair suite's certificates: sound as the window grows, blind to the
prediction.

A certified measurement at a small radius is evidence only if a larger
window never contradicts it.  The two-sided kinds (disjoint, path, blob)
must come back the same, field for field.  A one-sided kind (ray,
maxpath, contained) is a lower bound: the larger window must see a kind
it can be part of, reaching at least as far.  The pairs are those the
self-test draws, taken from its own stream.

Whether the window is big enough must be decided from the oracle sets
alone, so the pair suite runs with the predicted shapes out of reach.
"""

from __future__ import annotations

import pytest

import btbranch.selftest as selftest
from btbranch.gf2 import field
from btbranch.tree import enumerate_window, measure_intersection

#: the fields each two-sided kind certifies
_TWO_SIDED = {"disjoint": ("distance",), "path": ("length",),
              "blob": ("diameter", "depth", "stem_is_edge")}
#: each one-sided kind: the field it bounds, and the kinds a larger
#: window may find in its place
_ONE_SIDED = {"ray": ("length", {"ray", "path"}),
              "maxpath": ("length", {"maxpath", "ray", "path"}),
              "contained": ("diameter", {"contained", "blob"})}


def _pair_stream(monkeypatch, **run):
    """The pairs the self-test with these arguments compares."""
    pairs = []
    real = selftest.compare_pair

    def recording(pair, *args, **kw):
        pairs.append(pair)
        return real(pair, *args, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(selftest, "compare_pair", recording)
        selftest.run_selftest(**run)
    return pairs


def _contradicts(small, large) -> bool:
    """Whether the certified measurement ``large`` refutes ``small``."""
    if small.kind in _TWO_SIDED:
        return small.kind != large.kind or any(
            getattr(small, f) != getattr(large, f)
            for f in _TWO_SIDED[small.kind])
    name, kinds = _ONE_SIDED[small.kind]
    return (large.kind not in kinds
            or getattr(large, name) < getattr(small, name))


@pytest.mark.parametrize("run, large", [
    (dict(seed=7, count=100), 12),
    (dict(seed=3, tau=2, count=40, radius=4), 8),
], ids=["tau1", "tau2"])
def test_no_smaller_window_contradicts_a_larger_one(monkeypatch, run, large):
    pairs = _pair_stream(monkeypatch, **run)
    fld = field(run.get("tau", 1))
    windows = [enumerate_window(fld, r) for r in range(large + 1)]
    compared, wrong = 0, []
    for idx, pair in enumerate(pairs):
        truth = measure_intersection(pair, windows[large])
        if not truth.certified:
            continue
        for radius, window in enumerate(windows[:large]):
            seen = measure_intersection(pair, window)
            if seen.certified:
                compared += 1
                if _contradicts(seen, truth):
                    wrong.append((idx, radius, seen, truth))
    assert compared >= 4 * len(pairs)
    assert not wrong, wrong[:3]


def test_the_pair_suite_never_reads_a_predicted_shape(monkeypatch):
    want = selftest.run_selftest(seed=7, count=30).render()
    comparing = []
    real_compare = selftest.compare_pair

    def compare(*args, **kw):
        comparing.append(True)
        try:
            return real_compare(*args, **kw)
        finally:
            comparing.pop()

    def refused(real):
        def guarded(*args, **kw):
            if comparing:
                raise AssertionError("compare_pair read a predicted shape")
            return real(*args, **kw)
        return guarded
    monkeypatch.setattr(selftest, "compare_pair", compare)
    for name in ("branch_shape", "shape_members"):
        monkeypatch.setattr(selftest, name,
                            refused(getattr(selftest, name)))
    report = selftest.run_selftest(seed=7, count=30)
    assert report.pair_safe > 0
    assert report.render() == want

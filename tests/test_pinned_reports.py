"""The bytes of the cheap fixed-seed self-test reports, pinned by sha256.

A change to any of them is a change to the instance stream, to the report
format or to a verdict, and has to be made on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

from btbranch.selftest import run_selftest

PINNED = [
    (dict(seed=7, count=30),
     "cde037a8bf3a112ef74dd7d5b1754f8689f80ad7f71d8f4b69fc33d20229dbfb"),
    (dict(seed=7, count=30, radius=6, prec=4),
     "6d73861587d1dbb78cd043fd62a19d4c6b87d02d9a68546c85297a1049e8854d"),
    (dict(seed=7, count=30, radius=6, prec=6),
     "6a44557b28d23dbfe815b9e774fc4e8298f485d9a9c0176fd7dfaf308fb1774c"),
    (dict(seed=7, count=30, radius=6, prec=10),
     "f63920758e1dca8d84353f9e40f1e991c833f863fe2324149349d6bfb12ff562"),
    (dict(seed=3, tau=2, count=20, radius=4),
     "fb13428f94c8c1b9941ceb77950c60b83dc0bebf370d728ab512d532517043a3"),
    (dict(seed=5, tau=3, count=5, radius=4),
     "5b4ffe48725ea3554f1df5b2aa063a2bb17683b2daefe3480ea359b42d2f1ae2"),
    # the invariant digests ROADMAP.md quotes for the larger runs
    (dict(seed=7, count=500),
     "b4205b33dd282d106b5d8144f3fcee932f4b4342f17bdd798b7ee9c4846df506"),
    (dict(seed=3, tau=2, count=50, radius=5),
     "fe956149229dcf6439692ab0ccf39e8b6e84f5b4e033277cbd51380353917177"),
    (dict(seed=5, tau=3, count=20, radius=4),
     "7d1d2fe372eb6a8d51b861cd34027007d700d3f071e8ad01245397a8493fccca"),
]


@pytest.mark.parametrize(
    "kwargs, digest", PINNED,
    ids=[",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in PINNED])
def test_report_bytes_are_pinned(kwargs, digest):
    text = run_selftest(**kwargs).render()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_branch_is_decided_at_precision_six():
    # deciding the members of branch #10 needs its ends past t^5; they
    # are its classified roots moved by a Moebius map, which keep that
    # precision where solving the fixed-point quadratic again does not
    report = run_selftest(seed=2, count=30, radius=6, prec=6)
    assert (report.branch_matched, report.branch_mismatched,
            report.branch_skipped) == (12, 0, 0)

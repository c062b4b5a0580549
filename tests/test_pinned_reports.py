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
     "b1a6345bda6d2d705d87785668e4b6c07bddbc7eb4c1dd1f369d68b24a4bf3b0"),
    (dict(seed=7, count=30, radius=6, prec=4),
     "aaa5ef0607809e9d7683dabe5fba6b1f3e97faf166e4f51acdb56faccc62ed45"),
    (dict(seed=7, count=30, radius=6, prec=6),
     "ce4b1d0f60c0da57ede546faf2826315863f361e127ec81135c33a07123157d3"),
    (dict(seed=7, count=30, radius=6, prec=10),
     "2b666d3d9b016965f3754d32a3bb07e5c29e7781d42b121afa7519f4933d5a23"),
    (dict(seed=3, tau=2, count=20, radius=4),
     "0c751179e9c56a29c1fd4a22da0418be22b18addaede62f8a117623076424dd9"),
    (dict(seed=5, tau=3, count=5, radius=4),
     "2c0a0f743b078692d55f806aa240dbb8b15cbd602374e60e1b4b6a86d91c6611"),
    # the invariant digests ROADMAP.md quotes for the larger runs
    (dict(seed=7, count=500),
     "1fc4163d0b9ea7520c2dc2b87bbdee2158e15caec2f0c7a6d9b77f1fb6f58fae"),
    (dict(seed=3, tau=2, count=50, radius=5),
     "8d99bcacb978f702772da7528ff19d1651ae22874ce88566b8b55840af782ea9"),
    (dict(seed=5, tau=3, count=20, radius=4),
     "05e5b3214aa9cb0953af24a6d279d9697b34aad3b38b56f61ee1ebb0a07daeb2"),
]


@pytest.mark.parametrize(
    "kwargs, digest", PINNED,
    ids=[",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in PINNED])
def test_report_bytes_are_pinned(kwargs, digest):
    text = run_selftest(**kwargs).render()
    assert hashlib.sha256(text.encode()).hexdigest() == digest

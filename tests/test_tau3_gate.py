"""The tau-3 gate: a self-test over F_8 with its symbol searches.

F_8 is the first residue field whose Artin-Schreier image x^2 + x holds
nonzero elements outside F_2.  The run's report is pinned by sha256 like
those in test_pinned_reports.py, and the gate reads its counts.
"""

from __future__ import annotations

import hashlib
import itertools
import time

from btbranch.selftest import run_selftest

DIGEST = ("abca39878ef0f884b7fab9d112a42002"
          "a64d3448c072d1d4306b9fd2deaa4cb7")


def test_tau3_selftest_passes_with_every_cell_covered():
    start = time.monotonic()
    report = run_selftest(seed=5, tau=3, count=50, radius=5)
    elapsed = time.monotonic() - start
    assert report.passing
    assert report.pair_mismatched == 0
    assert report.branch_mismatched == 0
    assert report.symbol_disagreements == 0
    # every unordered pair of the four cells is drawn and matched
    cells = {"/".join(pair) for pair in
             itertools.combinations_with_replacement(
                 ("A^i", "A^s", "B^i", "B^s"), 2)}
    drawn = {key.rsplit(" ", 1)[0] for key in report.cells}
    assert drawn == cells
    assert all(report.cells[f"{cell} matched"] for cell in cells)
    text = report.render()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
    assert elapsed < 5.0

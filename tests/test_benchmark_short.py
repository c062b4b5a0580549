"""The benchmark's own check, ``benchmark/run.py --short``, in tier-1.

It runs every workload on tiny inputs, untraced and under the tracer,
and exits 0 only if every answer passes its checks.  The tracer wraps
the public functions of every layer and hooks ``Series.__post_init__``
to count constructions, so a change to how series are built or called
that breaks the benchmark shows up here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_short_run_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.splitlines()[-1] == "short: PASS"

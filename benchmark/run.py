"""End-to-end and per-layer benchmark of btbranch.

Run from the root of a checkout:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --short

One thread at a time: the timed passes and the set-up samples run in
child interpreters, one after the other.  The program is imported from
``src/`` of the checkout this file sits in; without it the command
exits with code 2 and prints no result.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same operations once untraced and once under the tracer and prints the
per-layer metrics with the tracer's overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--short`` runs every
workload on tiny inputs, traced and untraced, and exits 0 only if all
checks pass.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "btbranch"
LAYERS = ("gf2", "series", "defects", "mat2", "tree", "geometry",
          "existence", "selftest")
PASSES = 3           # fresh interpreters that each time every operation
SETUP_RUNS = 3       # set-up samples taken before each pass


def _import_program() -> None:
    """Import btbranch from this checkout's src/, or exit with code 2."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {SRC / PACKAGE}; run from a checkout of the "
              "repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import btbranch
    where = Path(btbranch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"error: imported {where}, not the copy under {SRC}",
              file=sys.stderr)
        sys.exit(2)


# -- child processes ------------------------------------------------

def _setup_once(name: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the program and prepared ``name``'s field (and window)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = perf_counter() - t0
        p.stdout.read()
        code = p.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child for {name} exited with {code}")
    return elapsed


def _pass_in_child(name: str, seed: int, n: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass",
           "--workload", name, "--seed", str(seed), "--count", str(n)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# -- measuring ------------------------------------------------------

def _pass(wl, items):
    """Prepare, then run every item; returns (ctx, seconds including the
    preparation, per-operation latencies, outputs).

    An exception ends that operation only: it is kept as its output
    and counted as a failure by ``_tally``.
    """
    t_all = perf_counter()
    ctx = wl.prepare()
    latencies, outs = [], []
    for item in items:
        t0 = perf_counter()
        try:
            out = wl.run(ctx, item)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            out = exc
        latencies.append(perf_counter() - t0)
        outs.append(out)
    return ctx, perf_counter() - t_all, latencies, outs


def _tally(wl, ctx, items, outs):
    from workloads import Tally
    total = Tally(problems=wl.check_setup(ctx))
    for item, out in zip(items, outs):
        if isinstance(out, Exception):
            n = wl.planned(item)
            total.add(Tally(attempted=n, failed=n))
        else:
            total.add(wl.check(ctx, item, out))
    return total


def pass_record(wl, seed: int, n: int) -> dict:
    """One untraced pass over the seed's inputs, checked."""
    items = wl.inputs(seed, n)
    ctx, _, latencies, outs = _pass(wl, items)
    tally = _tally(wl, ctx, items, outs)
    return {"latencies": latencies, "attempted": tally.attempted,
            "failed": tally.failed, "compared": tally.compared,
            "problems": tally.problems}


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(wl, seed: int, n: int, setup_runs: int) -> dict:
    """The end-to-end metrics.

    Each of PASSES fresh interpreters runs and checks the same ``n``
    operations, one after the other, so the timings of one operation
    lie a whole pass apart.  An operation's latency is the least of its
    timings: a stretch of time in which other tenants slow the machine
    down then has to hit the same operation in every pass to show.
    Fresh interpreters keep a cache filled in one pass from serving
    the next.
    """
    setups, passes = [], []
    for _ in range(PASSES):
        setups += [_setup_once(wl.name) for _ in range(setup_runs)]
        passes.append(_pass_in_child(wl.name, seed, n))
    first = passes[0]
    problems = list(first["problems"])
    keys = ("attempted", "failed", "compared", "problems")
    if any(p[k] != first[k] for p in passes for k in keys):
        problems.append("passes over the same inputs disagree")
    lat = [min(ts) for ts in zip(*(p["latencies"] for p in passes))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (_p90(lat) * 1e3, "ms"),
        "compared": (first["compared"], "count"),
    }
    return _result(first["attempted"], first["failed"], problems, metrics,
                   len(lat))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def measure_traced(wl, seed: int, n: int) -> dict:
    from tracer import Tracer
    items = wl.inputs(seed, n)
    _, plain_all, _, plain_outs = _pass(wl, items)
    tracer = Tracer(PACKAGE, LAYERS)
    tracer.install()
    try:
        ctx, traced_all, lat, outs = _pass(wl, items)
    finally:
        tracer.uninstall()
    tally = _tally(wl, ctx, items, outs)
    differ = sum(1 for a, b in zip(plain_outs, outs)
                 if a != b and not (isinstance(a, Exception)
                                    and isinstance(b, Exception)))
    if differ:
        tally.problems.append(f"{differ} outputs differ under the tracer")

    t = tracer
    m = {}
    for key in ("gf2.ff_mul", "series.s_add", "series.s_mul", "series.s_inv",
                "tree.member", "tree.oracle_branch", "geometry.shape_members"):
        m[f"{key}.calls"] = (t.calls(key), "count")
    for key in ("gf2.ff_mul", "series.s_add", "series.s_mul", "series.s_inv",
                "tree.member", "selftest.run_selftest"):
        m[f"{key}.self_s"] = (t.self_s(key), "s")
    for key in ("defects.classify", "defects.solve_quadratic",
                "mat2.make_pair", "geometry.branch_shape",
                "geometry.predict_relpos", "geometry.shape_members",
                "tree.enumerate_window", "tree.oracle_branch",
                "tree.measure_intersection", "existence.decide",
                "existence.search_zero_divisor", "existence.search_pair"):
        m[f"{key}.s"] = (t.incl_s(key), "s")
    m["series.constructed"] = (t.constructed, "count")
    m["tree.member.hit_ratio"] = (
        _ratio(t.hits("tree.member"), t.calls("tree.member")), "ratio")
    searches = ("existence.search_zero_divisor", "existence.search_pair")
    m["existence.search.hit_ratio"] = (
        _ratio(sum(t.hits(k) for k in searches),
               sum(t.calls(k) for k in searches)), "ratio")
    for layer in LAYERS:
        calls, busy = t.layer_totals(layer)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (busy, "s")
    m["trace.overhead_ratio"] = (traced_all / plain_all, "ratio")

    out_dir = Path(__file__).resolve().parent / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "operations": len(lat),
         "untraced_s": plain_all, "traced_s": traced_all,
         "functions": t.table()}, indent=1) + "\n")
    return _result(tally.attempted, tally.failed, tally.problems, m, len(lat))


def _result(attempted: int, failed: int, problems: list[str], metrics: dict,
            ops: int) -> dict:
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "operations": ops}


def _summary(name: str, res: dict) -> None:
    print(f"{name}: {res['operations']} operations, "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"correct={res['correct']}")
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def run_short() -> int:
    """Every workload on tiny inputs, untraced and traced."""
    from workloads import WORKLOADS
    ok = True
    for name, wl in WORKLOADS.items():
        for traced in (False, True):
            n = wl.short_n
            res = (measure_traced(wl, 1, n) if traced
                   else measure(wl, 1, n, setup_runs=1))
            _summary(f"{name} trace={int(traced)}", res)
            good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            ok = ok and good
    print("short: PASS" if ok else "short: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("sweep", "realise", "predict"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="tiny inputs on every workload; a self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="one_pass", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--count", type=int, default=1, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.short and args.workload is None:
        p.error("--workload is required unless --short is given")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    _import_program()
    from workloads import WORKLOADS
    if args.short:
        return run_short()
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.prepare()
        print("ready", flush=True)
        return 0
    if args.one_pass:
        print(json.dumps(pass_record(wl, args.seed, args.count)))
        return 0
    n = max(1, round(wl.per_second * args.seconds / PASSES))
    if args.trace:
        res = measure_traced(wl, args.seed, n)
    else:
        res = measure(wl, args.seed, n, SETUP_RUNS)
    _summary(wl.name, res)
    del res["operations"]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Call tracing for the benchmark's per-layer figures.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in every ``btbranch`` module namespace that binds
it, so calls from one layer into another (and within a layer) pass
through the wrapper.  Private helpers (names starting with ``_``) are
left alone: their time is part of the public function that calls them.

For each wrapped function the tracer keeps:

* ``calls``: how many times it was entered;
* ``incl_ns``: wall time of its outermost active calls, so a function
  that recurses into itself is not counted twice;
* ``self_ns``: wall time minus the time spent in other wrapped calls
  made from it;
* ``hits``: calls whose result was neither ``None`` nor ``False``.

It also counts ``Series`` constructions.  Everything stays in memory
until ``uninstall``; the run is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

CALLS, INCL, SELF, ACTIVE, HITS = range(5)


class Tracer:
    def __init__(self, package: str, modules: tuple[str, ...]):
        self.package = package
        self.modules = modules
        self.stats: dict[str, list[int]] = {}
        self.constructed = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, rec):
        stack = self._stack

        def traced(*args, **kwargs):
            rec[CALLS] += 1
            rec[ACTIVE] += 1
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                rec[SELF] += dt - stack.pop()
                rec[ACTIVE] -= 1
                if not rec[ACTIVE]:
                    rec[INCL] += dt
                if stack:
                    stack[-1] += dt
            if result is not None and result is not False:
                rec[HITS] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._stack: list[int] = []
        loaded = [m for name, m in list(sys.modules.items())
                  if name == self.package
                  or name.startswith(self.package + ".")]
        for short in self.modules:
            mod = sys.modules[f"{self.package}.{short}"]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                rec = self.stats.setdefault(f"{short}.{name}", [0] * 5)
                wrapper = self._wrap(fn, rec)
                for holder in loaded:
                    if getattr(holder, name, None) is fn:
                        self._undo.append((holder, name, fn))
                        setattr(holder, name, wrapper)
        series_cls = sys.modules[f"{self.package}.series"].Series
        post_init = series_cls.__post_init__

        def counted(obj):
            self.constructed += 1
            post_init(obj)

        self._undo.append((series_cls, "__post_init__", post_init))
        series_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # -- reading the figures ---------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0] * 5)[CALLS]

    def incl_s(self, key: str) -> float:
        return self.stats.get(key, [0] * 5)[INCL] / 1e9

    def self_s(self, key: str) -> float:
        return self.stats.get(key, [0] * 5)[SELF] / 1e9

    def hits(self, key: str) -> int:
        return self.stats.get(key, [0] * 5)[HITS]

    def layer_totals(self, short: str) -> tuple[int, float]:
        """Calls and self time summed over one module's public functions."""
        recs = [r for k, r in self.stats.items()
                if k.split(".", 1)[0] == short]
        return (sum(r[CALLS] for r in recs),
                sum(r[SELF] for r in recs) / 1e9)

    def table(self) -> dict[str, dict[str, float]]:
        return {k: {"calls": r[CALLS], "incl_s": r[INCL] / 1e9,
                    "self_s": r[SELF] / 1e9, "hits": r[HITS]}
                for k, r in sorted(self.stats.items()) if r[CALLS]}

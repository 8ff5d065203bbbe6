"""Span bookkeeping for the traced run, and the wrappers that feed it.

A span is one call of a traced function.  Spans nest on a stack: a span's
self time is its duration minus the durations of the spans opened directly
inside it, and its inclusive time counts only when no span of the same name
is already open, so a name that calls itself is not counted twice.  Spans
are aggregated per name as they close, which keeps memory flat over the
million-call scan.

`install` replaces each traced function at every module attribute of the
`perfdist` package that is bound to it, not only in the defining module:
`decider` binds `analyze`, `factorize`, `is_prime` and others by name at
import time, and `cli` binds `decide`, so patching `rn.analyze` alone would
miss every call that `decide` makes.
"""

from __future__ import annotations

import sys
import time


class SpanStats:
    """Per-name calls, inclusive seconds and self seconds of nested spans."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, time covered by child spans]
        self._open: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}

    def enter(self, name: str, t: float) -> None:
        self._stack.append([name, t, 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def exit(self, t: float) -> None:
        name, start, covered = self._stack.pop()
        duration = t - start
        self._open[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - covered
        if self._open[name] == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration

    def merge(self, other: "SpanStats") -> None:
        for table in ("calls", "inclusive", "self_time"):
            mine = getattr(self, table)
            for name, value in getattr(other, table).items():
                mine[name] = mine.get(name, 0) + value

    def to_dict(self) -> dict:
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "self_time": dict(self.self_time)}

    @classmethod
    def from_dict(cls, obj: dict) -> "SpanStats":
        stats = cls()
        stats.calls, stats.inclusive, stats.self_time = (
            dict(obj["calls"]), dict(obj["inclusive"]), dict(obj["self_time"]))
        return stats


# (module, function) pairs timed with a span per call.
SPANNED = (
    ("arith", "factorize"),
    ("arith", "is_prime"),
    ("arith", "is_perfect"),
    ("mersenne", "lucas_lehmer"),
    ("rn", "analyze"),
    ("rn", "sieve"),
    ("rn", "power_cycle"),
    ("rn", "direct_search"),
    ("decider", "decide"),
    ("decider", "generate_branches"),
    ("decider", "check_candidate"),
    ("cli", "main"),
)
# Called about a million times on the scan: a span each would double the
# run time, so these are only counted.
COUNTED = (("rn", "solution_at"),)


class Tracer:
    """Owns the span statistics, the plain counters and the installed wrappers."""

    def __init__(self):
        self.spans = SpanStats()
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}

    def _bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _note_result(self, label: str, result) -> None:
        # useful-outcome counters: closed branches and incomplete factorizations
        if label == "rn.analyze" and result.status != "open":
            self._bump("rn.analyze.closed")
        elif label == "arith.factorize" and not result.complete:
            self._bump("arith.factorize.incomplete")

    def _spanned(self, label: str, fn):
        spans, clock, note = self.spans, time.perf_counter, self._note_result

        def wrapper(*args, **kwargs):
            spans.enter(label, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.exit(clock())
            note(label, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, label: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every perfdist attribute bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "perfdist" or name.startswith("perfdist."))]
        for make, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for modname, fname in table:
                label = f"{modname}.{fname}"
                original = getattr(sys.modules[f"perfdist.{modname}"], fname)
                wrapper = make(label, original)
                self.originals[label] = original
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

"""The statistical benchmark runner.

Each benchmark is measured in two independent modes:

* **Timing** — ``warmup`` untimed calls, then ``repeat`` timed calls
  with tracing *disabled* (the production configuration); reported as
  median / IQR / min, the robust statistics recommended for noisy
  timers.  Benchmarks that measure timing internally register with a
  ``repeat`` cap (usually 1) so the runner does not multiply their
  cost.
* **Work** — one additional call under an enabled
  :class:`~repro.obs.trace.Tracer`, harvesting every counter the run
  produced (the deterministic ``work.*`` counters of
  :mod:`repro.obs.prof` plus cache/pass counters).  Benchmarks whose
  own measurements an ambient tracer would distort register with
  ``profile=False`` and contribute no counters.

:func:`run_suite` packages the results with an environment fingerprint
into one JSON-serializable record — the unit that ``repro bench
--json`` writes and :mod:`repro.bench.check` compares.
"""

from __future__ import annotations

import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bench.env import fingerprint
from repro.bench.registry import Benchmark
from repro.obs.trace import Tracer, use_tracer

__all__ = [
    "BenchResult",
    "RECORD_SCHEMA",
    "run_benchmark",
    "run_suite",
    "wall_stats",
]

RECORD_SCHEMA = "repro.bench/record/v1"

DEFAULT_REPEAT = 5
DEFAULT_WARMUP = 1


def wall_stats(samples: Sequence[float]) -> dict:
    """Robust summary of wall-clock samples (seconds in, ms out)."""
    if not samples:
        return {
            "repeats": 0,
            "median_ms": 0.0,
            "iqr_ms": 0.0,
            "min_ms": 0.0,
            "max_ms": 0.0,
        }
    ordered = sorted(s * 1e3 for s in samples)
    if len(ordered) >= 4:
        quartiles = statistics.quantiles(ordered, n=4)
        iqr = quartiles[2] - quartiles[0]
    else:
        # Too few samples for quartiles: spread is the honest stand-in.
        iqr = ordered[-1] - ordered[0]
    return {
        "repeats": len(ordered),
        "median_ms": round(statistics.median(ordered), 6),
        "iqr_ms": round(iqr, 6),
        "min_ms": round(ordered[0], 6),
        "max_ms": round(ordered[-1], 6),
    }


def _jsonable(value: object) -> object:
    """``value`` if JSON-serializable, else its repr."""
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)
    return value


@dataclass
class BenchResult:
    """Outcome of one benchmark: timing stats, counters, payload."""

    name: str
    group: str
    wall: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    payload: object = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "wall": self.wall,
            "counters": self.counters,
            "payload": _jsonable(self.payload),
            "error": self.error,
        }


def run_benchmark(
    bench: Benchmark,
    repeat: int = DEFAULT_REPEAT,
    warmup: int = DEFAULT_WARMUP,
) -> BenchResult:
    """Run one benchmark: warmup, timed repeats, traced work pass."""
    effective_repeat = max(1, min(repeat, bench.repeat or repeat))
    effective_warmup = warmup if effective_repeat > 1 else 0
    result = BenchResult(name=bench.name, group=bench.group)
    try:
        for _ in range(effective_warmup):
            bench.fn()
        samples: list[float] = []
        for _ in range(effective_repeat):
            start = time.perf_counter()
            result.payload = bench.fn()
            samples.append(time.perf_counter() - start)
        result.wall = wall_stats(samples)
        if bench.profile:
            tracer = Tracer()
            with use_tracer(tracer):
                bench.fn()
            result.counters = {
                name: counter.value
                for name, counter in sorted(tracer.metrics.counters.items())
            }
    except Exception as exc:  # noqa: BLE001 — report, don't crash the suite
        result.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    return result


def run_suite(
    benches: Sequence[Benchmark],
    repeat: int = DEFAULT_REPEAT,
    warmup: int = DEFAULT_WARMUP,
    group: Optional[str] = None,
) -> dict:
    """Run ``benches`` and package one benchmark record."""
    results = [run_benchmark(b, repeat=repeat, warmup=warmup) for b in benches]
    return {
        "schema": RECORD_SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "group": group,
        "repeat": repeat,
        "warmup": warmup,
        "env": fingerprint(),
        "results": {r.name: r.as_dict() for r in results},
    }

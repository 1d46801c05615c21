"""Deterministic work counters — the machine-independent cost signal.

Wall-clock numbers drift with the machine, the thermal state, and the
interpreter; the *work* an algorithm does — statements visited, lattice
evaluations, π arguments examined — does not.  Every pipeline phase
reports its operation counts through the tracer's metrics registry
under a ``work.<phase>.<metric>`` name, so an enabled trace carries a
noise-free cost profile next to the wall times, and two runs of the
same input on any two machines produce **identical** work counters.

The benchmark layer (:mod:`repro.bench`) uses these counters as the
primary regression signal: a pass that starts visiting twice as many
nodes fails the gate even when the wall-clock difference drowns in
timer noise.

Conventions
-----------

* Counter names are ``work.<phase>.<metric>``; ``<phase>`` matches the
  span the phase runs under (``constprop``, ``pdce``, ``licm``,
  ``lvn``, ``cssa``, ``rewrite-pi``, ``ordering``, ``pfg``,
  ``identify-mutex``), so profiles join wall time and work by name.
* Passes report **once per run** via :func:`record_work` with locally
  accumulated integers — the disabled-tracer cost of a pass is one
  function call and an ``enabled`` check, preserving the <5% disabled
  overhead bound of ``bench_trace_overhead.py``.
* Callers import :func:`record_work` at module level (this package
  imports nothing from the rest of ``repro`` at import time) and call
  it unguarded: it checks ``enabled`` itself.  Only where computing an
  argument walks the graph or the program (the PFG's block sums, the
  mutex bodies' node sums, the CSSA conflict-edge count) does the
  caller wrap the call in ``if get_tracer().enabled:``.
* The session reports one ``work.session.compute.<stage>`` unit per
  stage it computes (phase ``session.compute``); a cache hit reports
  none.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.trace import NullTracer, Tracer, get_tracer, use_tracer

__all__ = [
    "WORK_PREFIX",
    "WorkProfile",
    "profile_source",
    "record_work",
    "total_work",
    "work_by_phase",
    "work_counters",
]

WORK_PREFIX = "work."

AnyTracer = Union[Tracer, NullTracer]


def record_work(phase: str, **counts: int) -> None:
    """Report a phase's deterministic operation counts, once per run.

    No-op (one attribute read) when tracing is disabled.  Counts
    accumulate across multiple runs under the same tracer, like every
    other counter.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return
    for metric, amount in counts.items():
        tracer.metrics.counter(f"{WORK_PREFIX}{phase}.{metric}").inc(amount)


def work_counters(tracer: AnyTracer) -> dict[str, int]:
    """All ``work.*`` counters of a tracer, name → value (sorted)."""
    return {
        name: counter.value
        for name, counter in sorted(tracer.metrics.counters.items())
        if name.startswith(WORK_PREFIX)
    }


def work_by_phase(counters: dict[str, int]) -> dict[str, dict[str, int]]:
    """Group ``work.<phase>.<metric>`` counters by phase."""
    phases: dict[str, dict[str, int]] = {}
    for name, value in counters.items():
        if not name.startswith(WORK_PREFIX):
            continue
        phase, _, metric = name[len(WORK_PREFIX):].partition(".")
        phases.setdefault(phase, {})[metric or "count"] = value
    return phases


def total_work(counters: dict[str, int]) -> int:
    """Sum of every ``work.*`` counter — the one-number cost signal."""
    return sum(v for n, v in counters.items() if n.startswith(WORK_PREFIX))


class WorkProfile:
    """One profiled pipeline run: spans, work counters, and the report."""

    def __init__(self, tracer: Tracer, report) -> None:
        self.tracer = tracer
        self.report = report
        self.counters = work_counters(tracer)

    @property
    def phases(self) -> dict[str, dict[str, int]]:
        return work_by_phase(self.counters)

    def total(self) -> int:
        return total_work(self.counters)

    def wall_ms(self) -> dict[str, float]:
        """Span name → wall milliseconds (emission order preserved)."""
        return {
            span.name: span.duration * 1e3 for span in self.tracer.spans()
        }

    def as_dict(self) -> dict:
        return {
            "wall_ms": {k: round(v, 6) for k, v in self.wall_ms().items()},
            "work": self.counters,
            "total_work": self.total(),
        }


def profile_source(
    source: str,
    use_mutex: bool = True,
    tracer: Optional[Tracer] = None,
) -> WorkProfile:
    """Run the paper's optimization pipeline on ``source`` through a
    fresh :class:`~repro.session.Session`, under ``tracer`` (a fresh
    one by default), and return its :class:`WorkProfile`.
    """
    from repro.session import Session

    tracer = tracer if tracer is not None else Tracer()
    with use_tracer(tracer):
        report = Session().optimize(source, use_mutex=use_mutex)
    return WorkProfile(tracer, report)

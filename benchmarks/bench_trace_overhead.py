"""OBS — what the *disabled* (default) tracer costs on the figure corpus.

The instrumented code pays one ``get_tracer()``/``tracer.enabled`` guard
or no-op span per site; we time one no-op site directly, count how many
sites one pipeline run executes (= the records an enabled run collects),
and bound the total against the pipeline's wall time.  The acceptance
bar is <5% — measured this way the real number is orders of magnitude
below it, and the estimate is robust to timer noise in a way a direct
A/B of two ~millisecond runs is not.  (The *enabled* tracer's cost is
reported by ``perfbench`` as ``obs.trace_overhead_pct``.)

Also emits ``BENCH_obs.json`` (the machine-readable per-figure
observation file) as a side effect, so one benchmark run refreshes the
whole observability trajectory.
"""

from time import perf_counter

from repro.bench import register
from repro.obs.trace import NULL_TRACER, Tracer
from repro.session import Session

from benchmarks.common import FIGURE_CORPUS, emit_bench_obs

#: how many times to repeat a timed section (best-of defeats noise)
_REPEATS = 5
#: iterations for the per-site no-op cost measurement
_NULL_ITERS = 20_000


def _best_of(fn, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _null_site_cost() -> float:
    """Seconds per instrumentation site when tracing is disabled.

    One "site" is modelled as the worst disabled case: a no-op span
    entered and exited, plus an ``enabled`` guard — strictly more work
    than the event-only sites pay.
    """
    tracer = NULL_TRACER

    def loop() -> None:
        for _ in range(_NULL_ITERS):
            with tracer.span("site"):
                if tracer.enabled:  # pragma: no cover - never taken
                    raise AssertionError
    return _best_of(loop) / _NULL_ITERS


@register(
    "trace_overhead",
    group="slow",
    repeat=1,
    profile=False,  # this benchmark A/B-times the tracer itself; an
    # ambient enabled tracer would invalidate its disabled-side numbers
    summary="tracer overhead bound (<5% disabled) on the figure corpus",
    emits=("BENCH_obs.json",),
)
def bench_trace_overhead() -> dict:
    site_cost = _null_site_cost()
    figures = {}
    for name, source in FIGURE_CORPUS.items():
        disabled = _best_of(lambda: Session().optimize(source))
        probe = Tracer()
        Session().optimize(source, trace=probe)
        sites = len(probe.records)
        disabled_overhead = sites * site_cost / disabled
        assert disabled_overhead < 0.05, (
            f"{name}: disabled-tracer overhead {disabled_overhead:.2%}"
        )
        figures[name] = {
            "disabled_ms": round(disabled * 1e3, 6),
            "sites": sites,
            "disabled_overhead_pct": round(disabled_overhead * 100, 4),
        }
    observations = emit_bench_obs()["figures"]
    assert observations, "no figures observed"
    for obs in observations:
        assert "pass:constprop" in obs["phase_wall_ms"]
        assert obs["form_metrics"]["statements"] > 0
    return {"site_cost_ns": round(site_cost * 1e9, 2), "figures": figures}

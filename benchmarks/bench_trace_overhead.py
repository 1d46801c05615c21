"""OBS — what the *disabled* (default) tracer costs on the figure corpus.

The instrumented code pays one ``get_tracer()``/``tracer.enabled`` guard
or no-op span per site; we time one no-op site directly, count how many
sites one pipeline run executes (= the records an enabled run collects),
and bound the total against the pipeline's wall time.  The acceptance
bar is <5% — measured this way the real number is orders of magnitude
below it, and the estimate is robust to timer noise in a way a direct
A/B of two ~millisecond runs is not.  (The *enabled* tracer's cost is
reported by ``perfbench`` as ``obs.trace_overhead_pct``.)
"""

from repro.bench import register
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.report import measure_form
from repro.session import Session

from benchmarks.common import FIGURE_CORPUS, best_of

#: iterations for the per-site no-op cost measurement
_NULL_ITERS = 20_000


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
    return best_of(loop) / _NULL_ITERS


@register(
    "trace_overhead",
    group="slow",
    repeat=1,
    profile=False,  # this benchmark A/B-times the tracer itself; an
    # ambient enabled tracer would invalidate its disabled-side numbers
    summary="tracer overhead bound (<5% disabled) on the figure corpus",
)
def bench_trace_overhead() -> dict:
    site_cost = _null_site_cost()
    figures = {}
    for name, source in FIGURE_CORPUS.items():
        disabled = best_of(lambda: Session().optimize(source))
        probe = Tracer()
        with use_tracer(probe):
            report = Session().optimize(source)
        assert probe.span_named("pass:constprop") is not None, name
        assert measure_form(report.program).statements > 0, name
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
    return {"site_cost_ns": round(site_cost * 1e9, 2), "figures": figures}

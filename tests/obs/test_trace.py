"""Tracer core: spans, events, the no-op default, context scope, overhead."""

import contextvars
import threading
from time import perf_counter

import pytest

from repro.obs.events import Event, PassStart
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.session import Session
from tests.conftest import FIGURE2_SOURCE


class TestNullTracer:
    def test_global_default_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        assert tracer.records == ()

    def test_noop_span_and_instruments(self):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
        NULL_TRACER.event(PassStart("p"))
        NULL_TRACER.counter("c").inc()
        NULL_TRACER.histogram("h").observe(3.0)
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.metrics.as_dict() == {"counters": {}, "histograms": {}}

    def test_pipeline_run_adds_no_events(self):
        """An untraced optimize journey leaves the ambient tracer empty."""
        Session().optimize(FIGURE2_SOURCE)
        tracer = get_tracer()
        assert tracer.records == ()
        assert tracer.spans() == [] and tracer.events() == []

    def test_disabled_overhead_under_5_percent(self):
        """Instrumentation cost with tracing off stays under 5% of the
        Figure 2 pipeline's wall time.

        Measured as (sites executed per run) x (per-site no-op cost):
        both factors are stable, unlike an A/B of two millisecond runs.
        """
        best = min(
            _timed(lambda: Session().optimize(FIGURE2_SOURCE)) for _ in range(5)
        )
        probe = Tracer()
        with use_tracer(probe):
            Session().optimize(FIGURE2_SOURCE)
        sites = len(probe.records)

        iters = 20_000
        tracer = NULL_TRACER

        def loop():
            for _ in range(iters):
                with tracer.span("site"):
                    pass
        site_cost = min(_timed(loop) for _ in range(5)) / iters
        assert sites * site_cost < 0.05 * best


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


class TestTracer:
    def test_span_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", x=1) as outer:
            with tracer.span("inner") as inner:
                inner.set(y=2)
            outer.set(z=3)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert [s.depth for s in spans] == [0, 1]
        assert spans[0].attrs == {"x": 1, "z": 3}
        assert spans[1].attrs == {"y": 2}
        assert spans[0].duration >= spans[1].duration >= 0.0
        # the inner interval lies within the outer one
        assert spans[0].start <= spans[1].start
        assert spans[1].end <= spans[0].end

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError
        assert tracer.spans()[0].end is not None
        assert tracer._stack == []

    def test_event_stamps_timestamp(self):
        tracer = Tracer()
        event = PassStart("constprop")
        tracer.event(event)
        assert isinstance(event, Event)
        assert event.ts >= 0.0
        assert tracer.events_of_kind("pass-start") == [event]

    def test_records_preserve_emission_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.event(PassStart("p1"))
        tracer.event(PassStart("p2"))
        kinds = [
            r.name if hasattr(r, "name") else r.kind for r in tracer.records
        ]
        assert kinds == ["a", "pass-start", "pass-start"]

    def test_metrics_roundtrip(self):
        tracer = Tracer()
        tracer.counter("c").inc()
        tracer.counter("c").inc(4)
        tracer.histogram("h").observe(2.0)
        tracer.histogram("h").observe(4.0)
        d = tracer.metrics.as_dict()
        assert d["counters"] == {"c": 5}
        assert d["histograms"]["h"]["count"] == 2
        assert d["histograms"]["h"]["mean"] == 3.0


class TestGlobalInstallation:
    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_use_tracer_restores_on_exit(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_use_tracer_none_means_noop(self):
        with use_tracer(None):
            assert not get_tracer().enabled


class TestContextScope:
    """The ambient tracer belongs to the current context, not the process."""

    def _in_thread(self, target):
        out = []
        thread = threading.Thread(target=lambda: out.append(target()))
        thread.start()
        thread.join()
        return out[0]

    def test_new_thread_starts_untraced(self):
        with use_tracer(Tracer()):
            assert self._in_thread(get_tracer) is NULL_TRACER

    def test_copied_context_carries_the_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            context = contextvars.copy_context()
        assert get_tracer() is NULL_TRACER
        assert self._in_thread(lambda: context.run(get_tracer)) is tracer

    def test_a_thread_scope_does_not_leak(self):
        tracer = Tracer()

        def scoped():
            with use_tracer(tracer):
                barrier.wait()  # the main thread reads while this is open
                barrier.wait()

        barrier = threading.Barrier(2)
        thread = threading.Thread(target=scoped)
        thread.start()
        barrier.wait()
        assert get_tracer() is NULL_TRACER
        barrier.wait()
        thread.join()

    def test_concurrent_absorbs_keep_every_increment(self):
        target = Tracer()
        donors = []
        for _ in range(8):
            donor = Tracer()
            donor.counter("work.test.units").inc(1_000)
            with donor.span("request"):
                pass
            donors.append(donor)
        threads = [
            threading.Thread(target=target.absorb, args=(d,)) for d in donors
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert target.metrics.counters["work.test.units"].value == 8_000
        assert len(target.spans()) == 8

"""The instrumented stack: decision events match the stats objects,
event sequences are deterministic, the VM emits runtime events, and the
critical-section profile can be recomputed from a trace."""

from repro.obs.trace import Tracer, use_tracer
from repro.report import (
    critical_section_profile,
    critical_section_profile_from_trace,
    lock_profile_from_events,
)
from repro.session import Session
from repro.vm.machine import run_random
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build

DEADLOCK_SOURCE = """
cobegin
begin lock(A); lock(B); unlock(B); unlock(A); end
begin lock(B); lock(A); unlock(A); unlock(B); end
coend
"""


def _event_payloads(tracer: Tracer) -> list[dict]:
    """Event dicts with timestamps stripped (the deterministic part)."""
    payloads = []
    for event in tracer.events():
        d = event.as_dict()
        d.pop("ts")
        payloads.append(d)
    return payloads


class TestPipelineEvents:
    def test_removal_events_match_rewrite_stats(self):
        tracer = Tracer()
        report = Session().optimize(FIGURE2_SOURCE, trace=tracer)
        stats = report.form.rewrite_stats
        removed = tracer.events_of_kind("pi-arg-removed")
        assert len(removed) == stats.args_removed == 5
        deleted = tracer.events_of_kind("pi-deleted")
        assert len(deleted) == stats.pis_deleted == 4
        assert tracer.metrics.counters["cssame.args_removed"].value == 5

    def test_removal_reasons_are_theorems(self):
        tracer = Tracer()
        Session().analyze(FIGURE1_SOURCE, trace=tracer)
        for event in tracer.events_of_kind("pi-arg-removed"):
            assert event.reason in ("not-upward-exposed", "does-not-reach-exit")
            assert event.lock == "L"

    def test_mutex_body_events_match_form(self):
        tracer = Tracer()
        form = Session().analyze(FIGURE2_SOURCE, trace=tracer)
        bodies = tracer.events_of_kind("mutex-body")
        assert len(bodies) == len(form.mutex_bodies()) == 2
        assert {e.lock for e in bodies} == {"L"}

    def test_pass_spans_and_events(self):
        tracer = Tracer()
        Session().optimize(FIGURE2_SOURCE, trace=tracer)
        span_names = [s.name for s in tracer.spans()]
        for name in ("optimize", "build-cssame", "pass:constprop",
                     "pass:pdce", "pass:licm"):
            assert name in span_names
        starts = [e.pass_name for e in tracer.events_of_kind("pass-start")]
        ends = [e.pass_name for e in tracer.events_of_kind("pass-end")]
        assert starts == ends == ["constprop", "pdce", "licm"]
        pdce_end = tracer.events_of_kind("pass-end")[1]
        assert pdce_end.stats["removed"] == 6

    def test_event_sequence_is_deterministic(self):
        """Two identical runs differ only in timestamps."""
        t1, t2 = Tracer(), Tracer()
        Session().optimize(FIGURE2_SOURCE, trace=t1)
        Session().optimize(FIGURE2_SOURCE, trace=t2)
        assert _event_payloads(t1) == _event_payloads(t2)
        assert [s.name for s in t1.spans()] == [s.name for s in t2.spans()]
        assert [s.attrs for s in t1.spans()] == [s.attrs for s in t2.spans()]

    def test_graph_is_fresh_tracking(self):
        report = Session().optimize(FIGURE2_SOURCE)
        assert report.graph_is_fresh is False
        untouched = Session().optimize(FIGURE2_SOURCE, passes=())
        assert untouched.graph_is_fresh is True

    def test_diagnose_span(self):
        tracer = Tracer()
        Session().diagnose(FIGURE2_SOURCE, trace=tracer)
        span = tracer.span_named("diagnose")
        assert span is not None
        assert span.attrs == {"warnings": 0, "races": 0}


class TestVMEvents:
    def test_step_events_match_execution(self):
        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(FIGURE2_SOURCE), seed=3)
        steps = tracer.events_of_kind("vm-step")
        assert len(steps) == ex.steps
        assert [e.step for e in steps] == list(range(ex.steps))
        acquires = tracer.events_of_kind("lock-acquire")
        assert len(acquires) == sum(ex.lock_acquisitions.values()) == 2
        releases = tracer.events_of_kind("lock-release")
        assert sum(e.held_steps for e in releases) == sum(
            ex.lock_held_steps.values()
        )
        contention = tracer.events_of_kind("lock-contention")
        assert len(contention) == sum(ex.lock_blocked_steps.values())

    def test_context_switches_recorded(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_random(build(FIGURE2_SOURCE), seed=3)
        switches = tracer.events_of_kind("context-switch")
        assert switches, "two threads must interleave at least once"
        for event in switches:
            assert event.prev_tid != event.next_tid

    def test_lock_hold_histogram(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_random(build(FIGURE2_SOURCE), seed=3)
        hist = tracer.metrics.histograms["vm.lock_hold_steps.L"]
        assert hist.summary()["count"] == 2

    def test_deadlocked_run_traces(self):
        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(
                build(DEADLOCK_SOURCE), seed=1, raise_on_deadlock=False
            )
        if ex.deadlocked:  # seed-dependent; both branches must trace
            assert len(tracer.events_of_kind("lock-acquire")) >= 2
        profile = lock_profile_from_events(tracer.events(), ex.steps)
        assert profile["held"] == ex.lock_held_steps
        assert profile["acquisitions"] == ex.lock_acquisitions


class TestProfileFromTrace:
    def test_matches_counter_based_profile(self):
        counters = critical_section_profile(build(FIGURE2_SOURCE))
        from_trace = critical_section_profile_from_trace(build(FIGURE2_SOURCE))
        assert counters == from_trace

    def test_matches_on_deadlocking_program(self):
        """Open holds at deadlock are accounted identically."""
        for seed in range(6):
            tracer = Tracer()
            with use_tracer(tracer):
                ex = run_random(
                    build(DEADLOCK_SOURCE), seed=seed, raise_on_deadlock=False
                )
            profile = lock_profile_from_events(tracer.events(), ex.steps)
            assert profile["held"] == ex.lock_held_steps, f"seed {seed}"
            assert profile["blocked"] == ex.lock_blocked_steps, f"seed {seed}"

    def test_profile_accepts_loaded_dicts(self, tmp_path):
        """The recompute works on a jsonl trace read back from disk."""
        from repro.obs.export import load_jsonl, write_trace

        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(FIGURE2_SOURCE), seed=0)
        path = tmp_path / "vm.jsonl"
        write_trace(tracer, str(path), "jsonl")
        records = [r for r in load_jsonl(str(path)) if r["type"] == "event"]
        profile = lock_profile_from_events(records, ex.steps)
        assert profile["held"] == ex.lock_held_steps


class TestExploreSpans:
    def test_explore_span_attrs(self):
        from repro.vm.explore import explore

        tracer = Tracer()
        with use_tracer(tracer):
            result = explore(build(FIGURE2_SOURCE))
        span = tracer.span_named("explore")
        assert span.attrs["states"] == result.states
        assert span.attrs["outcomes"] == len(result.outcomes)
        assert span.attrs["complete"] is True
        assert tracer.metrics.counters["explore.states"].value == result.states

"""The instrumented stack: decision events match the stats objects,
event sequences are deterministic, and the VM's runtime events and
metrics restate its execution record."""

from repro.obs.trace import Tracer, use_tracer
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
        with use_tracer(tracer):
            report = Session().optimize(FIGURE2_SOURCE)
        stats = report.form.rewrite_stats
        removed = tracer.events_of_kind("pi-arg-removed")
        assert len(removed) == stats.args_removed == 5
        deleted = tracer.events_of_kind("pi-deleted")
        assert len(deleted) == stats.pis_deleted == 4
        assert tracer.metrics.counters["cssame.args_removed"].value == 5

    def test_removal_reasons_are_theorems(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Session().analyze(FIGURE1_SOURCE)
        for event in tracer.events_of_kind("pi-arg-removed"):
            assert event.reason in ("not-upward-exposed", "does-not-reach-exit")
            assert event.lock == "L"

    def test_mutex_body_events_match_form(self):
        tracer = Tracer()
        with use_tracer(tracer):
            form = Session().analyze(FIGURE2_SOURCE)
        bodies = tracer.events_of_kind("mutex-body")
        assert len(bodies) == len(form.mutex_bodies()) == 2
        assert {e.lock for e in bodies} == {"L"}

    def test_pass_spans_and_events(self):
        tracer = Tracer()
        with use_tracer(tracer):
            Session().optimize(FIGURE2_SOURCE)
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
        with use_tracer(t1):
            Session().optimize(FIGURE2_SOURCE)
        with use_tracer(t2):
            Session().optimize(FIGURE2_SOURCE)
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
        with use_tracer(tracer):
            Session().diagnose(FIGURE2_SOURCE)
        span = tracer.span_named("diagnose")
        assert span is not None
        assert span.attrs == {"warnings": 0, "races": 0}


def _interval_records(tracer: Tracer) -> list[dict]:
    """The traced held/blocked interval events, in the timeline's shape."""
    return [
        {
            "kind": "held" if e.kind == "lock-held-interval" else "blocked",
            "lock": e.lock,
            "tid": e.tid,
            "from": e.from_step,
            "to": e.to_step,
            "open": e.open,
        }
        for e in tracer.events()
        if e.kind in ("lock-held-interval", "lock-blocked-interval")
    ]


class TestVMEvents:
    def test_step_events_match_execution(self):
        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(FIGURE2_SOURCE), seed=3)
        steps = tracer.events_of_kind("vm-step")
        assert len(steps) == ex.steps
        assert [e.step for e in steps] == list(range(ex.steps))

    def test_lock_metrics_match_execution(self):
        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(FIGURE2_SOURCE), seed=3)
        counters = tracer.metrics.counters
        assert ex.lock_acquisitions == {"L": 2}
        assert counters["vm.lock_acquisitions.L"].value == 2
        hist = tracer.metrics.histograms["vm.lock_hold_steps.L"]
        assert hist.summary()["total"] == ex.lock_held_steps["L"]
        for lock, blocked in ex.lock_blocked_steps.items():
            assert counters[f"vm.lock_blocked_steps.{lock}"].value == blocked

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
        """The two intervals still open at the deadlock are traced too."""
        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(DEADLOCK_SOURCE), seed=0, raise_on_deadlock=False)
        assert ex.deadlocked
        traced = _interval_records(tracer)
        assert traced == ex.lock_intervals
        assert sum(i["open"] for i in traced) == 2


class TestLockIntervals:
    """One trace record per lock fact: the interval events restate
    ``Execution.lock_intervals`` exactly, open intervals included."""

    def test_interval_events_restate_the_timeline(self):
        for source in (FIGURE2_SOURCE, DEADLOCK_SOURCE):
            for seed in range(6):
                tracer = Tracer()
                with use_tracer(tracer):
                    ex = run_random(build(source), seed=seed, raise_on_deadlock=False)
                assert _interval_records(tracer) == ex.lock_intervals, f"seed {seed}"


def _profile_from_trace(intervals: list[dict], counters: dict) -> dict:
    """The execution's three per-lock maps, rebuilt from a trace: held
    steps from the held intervals (the VM stops accounting at the step
    that ends a deadlocked run, hence the -1 for an open hold), blocked
    steps and acquisitions from the metrics."""
    held: dict[str, int] = {}
    for i in intervals:
        if i["kind"] == "lock-held-interval":
            length = i["to_step"] - i["from_step"] - (1 if i["open"] else 0)
            if length > 0:
                held[i["lock"]] = held.get(i["lock"], 0) + length

    def by_lock(prefix: str) -> dict[str, int]:
        return {
            name[len(prefix):]: value
            for name, value in counters.items()
            if name.startswith(prefix)
        }

    return {
        "held": held,
        "blocked": by_lock("vm.lock_blocked_steps."),
        "acquisitions": by_lock("vm.lock_acquisitions."),
    }


def _traced_profile(source: str, seed: int) -> tuple[dict, object]:
    tracer = Tracer()
    with use_tracer(tracer):
        ex = run_random(build(source), seed=seed, raise_on_deadlock=False)
    intervals = [
        e.as_dict() for e in tracer.events()
        if e.kind in ("lock-held-interval", "lock-blocked-interval")
    ]
    counters = {n: c.value for n, c in tracer.metrics.counters.items()}
    return _profile_from_trace(intervals, counters), ex


def _counter_profile(ex) -> dict:
    return {
        "held": ex.lock_held_steps,
        "blocked": ex.lock_blocked_steps,
        "acquisitions": ex.lock_acquisitions,
    }


class TestProfileFromTrace:
    """The interval events and the ``vm.lock_*`` metrics are a complete
    account of the VM's per-lock counters."""

    def test_matches_counter_based_profile(self):
        for seed in range(8):
            profile, ex = _traced_profile(FIGURE2_SOURCE, seed)
            assert profile == _counter_profile(ex), f"seed {seed}"

    def test_matches_on_deadlocking_program(self):
        """Open holds at deadlock are accounted identically."""
        for seed in range(6):
            profile, ex = _traced_profile(DEADLOCK_SOURCE, seed)
            assert profile == _counter_profile(ex), f"seed {seed}"

    def test_profile_accepts_loaded_dicts(self, tmp_path):
        """The recompute works on a jsonl trace read back from disk."""
        from repro.obs.export import load_jsonl, write_trace

        tracer = Tracer()
        with use_tracer(tracer):
            ex = run_random(build(DEADLOCK_SOURCE), seed=0, raise_on_deadlock=False)
        path = tmp_path / "vm.jsonl"
        write_trace(tracer, str(path), "jsonl")
        records = load_jsonl(str(path))
        intervals = [
            r for r in records
            if r.get("kind") in ("lock-held-interval", "lock-blocked-interval")
        ]
        metrics = next(r for r in records if r["type"] == "metrics")
        profile = _profile_from_trace(intervals, metrics["counters"])
        assert profile == _counter_profile(ex)


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

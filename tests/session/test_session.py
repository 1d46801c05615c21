"""Session semantics: stage reuse, copy-on-write, cache correctness."""

from repro.ir.printer import format_ir
from repro.obs.trace import Tracer, use_tracer
from repro.session import STAGES, Session
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE


class TestStageReuse:
    def test_journey_reuses_front_end(self):
        session = Session()
        session.analyze(FIGURE2_SOURCE)
        session.diagnose(FIGURE2_SOURCE)
        session.dot(FIGURE2_SOURCE)
        stats = session.cache_stats()
        # one parse, one lowering for the whole journey: diagnose's CSSA
        # chain reuses the ir artifact, dot reuses the CSSAME form itself
        assert stats.by_stage["ast"] == {"hits": 0, "misses": 1}
        assert stats.by_stage["ir"] == {"hits": 1, "misses": 1}
        assert stats.by_stage["cssame"]["hits"] == 1

    def test_repeat_requests_are_pure_hits(self):
        session = Session()
        first = session.analyze(FIGURE2_SOURCE)
        before = session.cache_stats().misses
        second = session.analyze(FIGURE2_SOURCE)
        assert second is first
        assert session.cache_stats().misses == before

    def test_dot_is_cached_per_title(self):
        session = Session()
        a = session.dot(FIGURE2_SOURCE, title="A")
        b = session.dot(FIGURE2_SOURCE, title="B")
        assert 'label="A"' in a and 'label="B"' in b
        again = session.dot(FIGURE2_SOURCE, title="A")
        assert again is a

    def test_distinct_sources_do_not_share(self):
        session = Session()
        f1 = session.analyze(FIGURE1_SOURCE)
        f2 = session.analyze(FIGURE2_SOURCE)
        assert f1 is not f2
        assert format_ir(f1.program) != format_ir(f2.program)


class TestOptionIsolation:
    def test_prune_variants_never_share_an_entry(self):
        session = Session()
        cssame = session.analyze(FIGURE2_SOURCE, prune=True)
        cssa = session.analyze(FIGURE2_SOURCE, prune=False)
        assert cssame is not cssa
        assert cssame.rewrite_stats is not None
        assert cssa.rewrite_stats is None

    def test_pass_tuples_never_share_an_entry(self):
        session = Session()
        full = session.optimize(FIGURE2_SOURCE)
        none = session.optimize(FIGURE2_SOURCE, passes=())
        assert full is not none
        assert none.graph_is_fresh is True
        assert full.graph_is_fresh is False

    def test_use_mutex_is_part_of_the_key(self):
        session = Session()
        a = session.optimize(FIGURE2_SOURCE, use_mutex=True)
        b = session.optimize(FIGURE2_SOURCE, use_mutex=False)
        assert a is not b


class TestCopyOnWrite:
    def test_front_end_returns_private_copies(self):
        session = Session()
        one = session.front_end(FIGURE2_SOURCE)
        two = session.front_end(FIGURE2_SOURCE)
        assert one is not two
        baseline = format_ir(two)
        one.body.items.clear()
        assert format_ir(session.front_end(FIGURE2_SOURCE)) == baseline

    def test_optimize_does_not_corrupt_cached_ir(self):
        session = Session()
        pristine = format_ir(session.front_end(FIGURE2_SOURCE))
        session.optimize(FIGURE2_SOURCE)  # rewrites a clone in place
        assert format_ir(session.front_end(FIGURE2_SOURCE)) == pristine

    def test_analyze_does_not_corrupt_cached_ir(self):
        session = Session()
        pristine = format_ir(session.front_end(FIGURE2_SOURCE))
        session.analyze(FIGURE2_SOURCE)  # SSA-renames a clone in place
        assert format_ir(session.front_end(FIGURE2_SOURCE)) == pristine

    def test_mutating_an_optimized_program_does_not_leak(self):
        session = Session()
        report = session.optimize(FIGURE2_SOURCE)
        report.program.body.items.clear()
        # downstream artifacts derived from the cached ir are intact
        fresh = Session()
        assert format_ir(session.front_end(FIGURE2_SOURCE)) == format_ir(
            fresh.front_end(FIGURE2_SOURCE)
        )
        assert session.dot(FIGURE2_SOURCE) == fresh.dot(FIGURE2_SOURCE)

    def test_diagnose_returns_fresh_lists(self):
        session = Session()
        warnings, races = session.diagnose(FIGURE2_SOURCE)
        warnings.append("sentinel")
        again, _ = session.diagnose(FIGURE2_SOURCE)
        assert "sentinel" not in again


class TestEvictionAndBounds:
    def test_bounded_session_recomputes_after_eviction(self):
        session = Session(max_entries=2)
        first = session.analyze(FIGURE2_SOURCE)
        # churn the cache until the form is evicted
        session.analyze(FIGURE1_SOURCE)
        session.diagnose(FIGURE1_SOURCE)
        second = session.analyze(FIGURE2_SOURCE)
        assert second is not first
        assert format_ir(second.program) == format_ir(first.program)
        assert session.cache_stats().evictions > 0


class TestTracing:
    def test_stage_spans_carry_cache_hit_attribute(self):
        session = Session()
        tracer = Tracer()
        with use_tracer(tracer):
            session.analyze(FIGURE2_SOURCE)
            session.analyze(FIGURE2_SOURCE)
        stage_spans = [
            s for s in tracer.spans() if s.name == "stage:cssame"
        ]
        assert [s.attrs["cache_hit"] for s in stage_spans] == [False, True]

    def test_cache_counters(self):
        session = Session()
        tracer = Tracer()
        with use_tracer(tracer):
            session.analyze(FIGURE2_SOURCE)
            session.analyze(FIGURE2_SOURCE)
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["session.cache.miss"] >= 3  # ast, ir, cssame
        assert counters["session.cache.hit"] == 1


class TestStageGraphShape:
    def test_declared_graph_matches_the_paper_pipeline(self):
        assert STAGES["ast"].parent is None
        assert STAGES["ir"].parent == "ast"
        assert STAGES["cssame"].parent == "ir"
        assert STAGES["diagnostics"].parent == "cssame"
        assert STAGES["diagnostics"].parent_options == {"prune": False}
        assert STAGES["optimized"].parent == "ir"
        assert STAGES["dot"].parent == "cssame"
        assert STAGES["bytecode"].parent == "ir"

    def test_only_diagnostics_pins_a_parent_option(self):
        pins = {
            name: spec.parent_options
            for name, spec in STAGES.items()
            if spec.parent_options
        }
        assert pins == {"diagnostics": {"prune": False}}

    def test_bytecode_stage(self):
        session = Session()
        program = session.bytecode(FIGURE2_SOURCE)
        assert session.bytecode(FIGURE2_SOURCE) is program

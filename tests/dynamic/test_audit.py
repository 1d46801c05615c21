"""Static ↔ dynamic cross-validation (`audit_source`)."""

from pathlib import Path

import pytest

from repro.dynamic.audit import (
    CONFIRMED,
    SCOPE_MONITORED,
    SCOPE_OBSERVABLE,
    UNCONFIRMED,
    audit_source,
)
from repro.mutex.races import RaceReport

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def example(name: str) -> str:
    return (EXAMPLES / name).read_text()


class TestRaceCounter:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_source(example("race_counter.par"), runs=16)

    def test_both_static_races_confirmed(self, report):
        assert len(report.confirmed) == 2
        assert not report.unconfirmed
        kinds = {f.report.kind for f in report.confirmed}
        assert kinds == {"write-write", "write-read"}

    def test_witnesses_replay_verified(self, report):
        for finding in report.confirmed:
            assert finding.witness_verified
            assert finding.dynamic is not None
            assert len(finding.dynamic.witness) > 0

    def test_sound(self, report):
        assert report.sound
        assert not report.dynamic_only

    def test_exit_codes(self, report):
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_coverage_complete_for_tiny_program(self, report):
        cov = report.coverage
        assert cov.runs == 16
        assert cov.explore_complete
        assert cov.outcome_coverage == 1.0
        assert cov.conflict_var_coverage == 1.0


class TestFigure1:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_source(example("figure1.par"), runs=16)

    def test_static_race_unconfirmed_observable(self, report):
        """The f(a) read is an observable-event argument: the static
        race exists, but no *dynamic* (memory-statement) race does."""
        assert not report.confirmed
        assert len(report.unconfirmed) == 1
        finding = report.unconfirmed[0]
        assert finding.status == UNCONFIRMED
        assert finding.scope == SCOPE_OBSERVABLE
        assert "observable" in finding.message()

    def test_no_dynamic_races(self, report):
        assert not report.dynamic
        assert report.exit_code(strict=True) == 0


class TestCleanPrograms:
    @pytest.mark.parametrize(
        "name",
        ["bank_transfer.par", "event_pipeline.par", "barrier_phase.par"],
    )
    def test_no_findings_at_all(self, name):
        report = audit_source(example(name), runs=12)
        assert not report.confirmed
        assert not report.dynamic
        assert report.sound
        assert report.exit_code(strict=True) == 0


class TestSoundnessCheck:
    def test_dynamic_only_fails_even_without_strict(self):
        """Feeding an empty static report makes every dynamic race a
        dynamic-only finding — the audit must fail regardless of
        strictness (it is a soundness check on the analysis)."""
        report = audit_source(
            example("race_counter.par"), runs=16, static_races=[]
        )
        assert report.dynamic  # the race is real and sampled
        assert report.dynamic_only
        assert not report.sound
        assert report.exit_code(strict=False) == 1

    def test_fabricated_static_race_unconfirmed_monitored(self):
        """A fabricated race on a memory variable no schedule exhibits
        stays unconfirmed with the 'monitored' (possibly infeasible)
        scope."""
        fake = RaceReport(
            "checking", 1, 2, "write-write", frozenset(), frozenset()
        )
        report = audit_source(
            example("bank_transfer.par"), runs=8, static_races=[fake]
        )
        assert len(report.unconfirmed) == 1
        finding = report.unconfirmed[0]
        assert finding.scope == SCOPE_MONITORED
        assert "possibly infeasible" in finding.message()


class TestReportShape:
    def test_as_dict_roundtrips_to_json(self):
        import json

        report = audit_source(example("race_counter.par"), runs=8)
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["sound"] is True
        assert len(doc["confirmed"]) == 2
        assert doc["coverage"]["runs"] == 8
        assert doc["seeds"] == list(range(8))
        for finding in doc["confirmed"]:
            assert finding["status"] == CONFIRMED
            assert finding["witness_verified"] is True
            assert finding["dynamic"]["witness"]

    def test_no_explore_leaves_yardstick_unset(self):
        report = audit_source(
            example("race_counter.par"), runs=4, do_explore=False
        )
        assert report.coverage.explored_outcomes is None
        assert report.coverage.outcome_coverage is None
        assert report.coverage.as_dict()["explored_outcome_classes"] is None

    def test_seed_base_shifts_seeds(self):
        report = audit_source(
            example("race_counter.par"), runs=3, seed_base=10, do_explore=False
        )
        assert report.seeds == [10, 11, 12]

    def test_deadlock_runs_exit_2(self):
        source = """
        cobegin
        begin lock(A); lock(B); unlock(B); unlock(A); end
        begin lock(B); lock(A); unlock(A); unlock(B); end
        coend
        print(0);
        """
        report = audit_source(source, runs=32, do_explore=False)
        # Some seed hits the circular-wait interleaving.
        assert report.coverage.deadlock_runs > 0
        assert report.exit_code(strict=False) == 2

    def test_audit_work_counters_recorded(self):
        from repro.obs.prof import WORK_PREFIX
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            audit_source(example("race_counter.par"), runs=4, do_explore=False)
        counters = tracer.metrics.as_dict()["counters"]
        assert counters[f"{WORK_PREFIX}audit.runs"] == 4
        assert counters[f"{WORK_PREFIX}audit.access_checks"] > 0
        assert counters[f"{WORK_PREFIX}audit.dynamic_races"] >= 1


class TestFaultingSchedules:
    """A schedule whose step faults is an outcome with an error marker,
    as in the explorer, not an aborted audit."""

    def test_sampled_error_outcome_is_explored(self):
        report = audit_source(
            "cobegin T0: begin x = 1; end T1: begin y = 10 / x; print(y); end coend"
        )
        error = (("error", "division by zero"),)
        assert report.coverage.runs == 16
        assert error in report.coverage.sampled_outcomes
        assert error in report.coverage.explored_outcomes
        assert report.coverage.sampled_outcomes <= report.coverage.explored_outcomes

    def test_races_found_before_the_fault_are_kept(self):
        source = """
        cobegin begin x = 1; print(x); end begin x = 2; end coend
        y = 10 / (x - x);
        """
        report = audit_source(source, runs=4)
        assert report.coverage.runs == 4
        assert {o[-1] for o in report.coverage.sampled_outcomes} == {
            ("error", "division by zero")
        }
        assert [race.var for race in report.dynamic] == ["x"]
        assert report.coverage.orderings
        assert report.sound

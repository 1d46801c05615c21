"""The job-queue server case study, locked as an integration test."""

from examples.case_study_server import SERVER
from repro.api import front_end
from repro.cssame import build_cssame
from repro.ir.structured import clone_program
from repro.opt.pipeline import optimize
from repro.session import Session
from repro.verify import exhaustive_equivalence
from repro.vm.explore import explore


class TestServerCaseStudy:
    def test_diagnostics_clean(self):
        warnings, races = Session().diagnose(SERVER)
        assert warnings == []
        assert races == []  # barrier/event ordering serializes done0/1

    def test_four_mutex_bodies(self):
        program = front_end(SERVER)
        form = build_cssame(program)
        assert len(form.mutex_bodies()) == 4

    def test_pipeline_verified(self):
        program = front_end(SERVER)
        report = optimize(program)
        res = exhaustive_equivalence(
            report.baseline, program, max_states=400_000
        )
        assert res.complete
        assert res.equal, res.explain()

    def test_result_value_set(self):
        program = front_end(SERVER)
        res = explore(program, max_states=400_000)
        assert res.complete
        assert not res.can_deadlock
        finals = {o[-1][1] for o in res.outcomes}
        # Two schedules: worker0 first (drains to 0, result 21) or
        # worker1 first (worker0's unconditional queued = 1 sticks,
        # result 20).  Both keep the fixed overheads 14 + 4.
        assert finals == {(21, 0), (20, 1)}

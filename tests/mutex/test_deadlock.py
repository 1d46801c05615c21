"""Static lock-order deadlock detection."""

from repro.api import front_end
from repro.cfg.builder import build_flow_graph
from repro.mutex.deadlock import detect_lock_order_cycles
from repro.mutex.identify import identify_mutex_structures
from repro.session import Session
from repro.vm.explore import explore, find_witness
from tests.conftest import build

ABBA = """
cobegin
begin lock(A); lock(B); x = 1; unlock(B); unlock(A); end
begin lock(B); lock(A); y = 2; unlock(A); unlock(B); end
coend
"""


def risks_of(source):
    g = build_flow_graph(build(source))
    structures = identify_mutex_structures(g)
    return detect_lock_order_cycles(g, structures)


class TestDetection:
    def test_abba_detected(self):
        risks = risks_of(ABBA)
        assert len(risks) == 1
        assert set(risks[0].cycle) == {"A", "B"}
        assert "potential deadlock" in risks[0].message()

    def test_consistent_order_clean(self):
        risks = risks_of(
            """
            cobegin
            begin lock(A); lock(B); x = 1; unlock(B); unlock(A); end
            begin lock(A); lock(B); y = 2; unlock(B); unlock(A); end
            coend
            """
        )
        assert risks == []

    def test_sequential_abba_clean(self):
        # Both orders appear, but never concurrently: no deadlock.
        risks = risks_of(
            """
            lock(A); lock(B); x = 1; unlock(B); unlock(A);
            lock(B); lock(A); y = 2; unlock(A); unlock(B);
            """
        )
        assert risks == []

    def test_single_lock_clean(self, figure2):
        g = build_flow_graph(figure2)
        assert detect_lock_order_cycles(g, identify_mutex_structures(g)) == []

    def test_three_lock_cycle(self):
        risks = risks_of(
            """
            cobegin
            begin lock(A); lock(B); x = 1; unlock(B); unlock(A); end
            begin lock(B); lock(C); y = 2; unlock(C); unlock(B); end
            begin lock(C); lock(A); z = 3; unlock(A); unlock(C); end
            coend
            """
        )
        assert len(risks) == 1
        assert set(risks[0].cycle) == {"A", "B", "C"}

    def test_cycle_reported_once(self):
        # Two thread pairs with the same inversion: one report.
        risks = risks_of(
            """
            cobegin
            begin lock(A); lock(B); w = 1; unlock(B); unlock(A); end
            begin lock(B); lock(A); x = 2; unlock(A); unlock(B); end
            begin lock(A); lock(B); y = 3; unlock(B); unlock(A); end
            coend
            """
        )
        assert len(risks) == 1


class TestIntegration:
    def test_diagnose_source_reports_risk(self):
        warnings, _races = Session().diagnose(ABBA)
        kinds = [w.kind for w in warnings]
        assert "deadlock-risk" in kinds

    def test_static_risk_confirmed_by_explorer(self):
        """The static report is real: the explorer finds an actual
        deadlocking schedule for the flagged program."""
        risks = risks_of(ABBA)
        assert risks
        program = front_end(ABBA)
        assert explore(program).can_deadlock
        schedule = find_witness(program, (("deadlock",),))
        assert schedule is not None

    def test_no_false_negative_on_paper_example(self, figure2_source):
        warnings, _ = Session().diagnose(figure2_source)
        assert all(w.kind != "deadlock-risk" for w in warnings)

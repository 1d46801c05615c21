"""Section 6 synchronization warnings."""

from repro.session import Session
from repro.cfg.builder import build_flow_graph
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.warnings import check_synchronization
from tests.conftest import build


def warnings_of(source):
    g = build_flow_graph(build(source))
    structures = identify_mutex_structures(g)
    return check_synchronization(g, structures)


class TestUnmatched:
    def test_clean_program_no_warnings(self, figure2_source):
        warnings, _ = Session().diagnose(figure2_source)
        assert warnings == []

    def test_lock_without_unlock(self):
        ws = warnings_of("lock(L); a = 1;")
        assert [w.kind for w in ws] == ["unmatched-lock"]
        assert "lock(L)" in ws[0].message

    def test_unlock_without_lock(self):
        ws = warnings_of("a = 1; unlock(L);")
        assert [w.kind for w in ws] == ["unmatched-unlock"]

    def test_conditional_unlock_warns_both(self):
        ws = warnings_of("lock(L); if (c) { unlock(L); } x = 1;")
        kinds = sorted(w.kind for w in ws)
        assert kinds == ["unmatched-lock", "unmatched-unlock"]

    def test_double_lock_outer_ops_unmatched(self):
        ws = warnings_of("lock(L); lock(L); a = 1; unlock(L); unlock(L);")
        kinds = sorted(w.kind for w in ws)
        assert kinds == ["unmatched-lock", "unmatched-unlock"]


class TestNesting:
    def test_proper_nesting_ok(self):
        ws = warnings_of("lock(A); lock(B); x = 1; unlock(B); unlock(A);")
        assert ws == []

    def test_improper_nesting_detected(self):
        # lock(A); lock(B); unlock(A); unlock(B): neither region
        # contains the other.
        ws = warnings_of("lock(A); lock(B); x = 1; unlock(A); y = 2; unlock(B);")
        assert any(w.kind == "improper-nesting" for w in ws)

    def test_disjoint_sections_ok(self):
        ws = warnings_of(
            "lock(A); x = 1; unlock(A); lock(B); y = 2; unlock(B);"
        )
        assert ws == []

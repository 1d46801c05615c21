"""Section 6 — implementation diagnostics.

The paper's prototype reports: unmatched Lock/Unlock, improperly nested
locks, and potential data races from inconsistently protected shared
variables.
"""

from repro.session import Session
from tests.conftest import FIGURE2_SOURCE


class TestDiagnostics:
    def test_clean_program_clean_report(self):
        warnings, races = Session().diagnose(FIGURE2_SOURCE)
        assert warnings == [] and races == []

    def test_unmatched_lock_warning(self):
        warnings, _ = Session().diagnose(
            """
            cobegin
            begin lock(L); v = 1; end
            begin lock(L); v = 2; unlock(L); end
            coend
            """
        )
        assert any(w.kind == "unmatched-lock" for w in warnings)

    def test_improperly_nested_locks(self):
        warnings, _ = Session().diagnose(
            "lock(A); lock(B); x = 1; unlock(A); y = 2; unlock(B);"
        )
        assert any(w.kind == "improper-nesting" for w in warnings)

    def test_inconsistent_lock_race(self):
        _, races = Session().diagnose(
            """
            cobegin
            begin lock(A); v = 1; unlock(A); end
            begin lock(B); v = 2; unlock(B); end
            coend
            print(v);
            """
        )
        assert any(r.var == "v" for r in races)

    def test_unsafe_still_optimizable(self):
        # Ill-formed sync degrades analysis quality, never correctness.
        source = """
        v = 0;
        cobegin
        begin lock(L); v = 1; x = v; end
        begin v = 2; end
        coend
        print(x);
        """
        report = Session().optimize(source)
        assert report.program is not None

    def test_graph_visualisation_supported(self):
        # Section 6: "The PFG can be displayed using a variety of graph
        # visualization systems" — our DOT stands in for VCG.
        assert Session().dot(FIGURE2_SOURCE).startswith("digraph")

"""End-to-end journeys through the public API."""

from repro import api
from repro.ir.structured import count_statements
from repro.report import critical_section_profile, measure_form, pfg_inventory
from repro.session import Session
from repro.synth import bank_accounts, licm_padding
from repro.verify import deterministic_output, exhaustive_equivalence
from repro.vm.machine import run_random
from tests.conftest import FIGURE2_SOURCE


class TestApiJourneys:
    def test_front_end(self):
        program = api.front_end("x = 1; print(x);")
        assert count_statements(program) == 2

    def test_analyze_source(self):
        form = Session().analyze(FIGURE2_SOURCE)
        assert form.rewrite_stats.pis_after == 1
        assert form.shared == {"a", "b"}

    def test_optimize_source_runs_and_verifies(self):
        report = Session().optimize(FIGURE2_SOURCE)
        res = exhaustive_equivalence(report.baseline, report.program)
        assert res.equal
        assert "final" in report.listings

    def test_diagnose_source(self):
        warnings, races = Session().diagnose(
            "cobegin begin v = 1; end begin v = 2; end coend print(v);"
        )
        assert warnings == []
        assert races

    def test_listing_helper(self):
        program = api.front_end("x = 1;")
        assert api.listing(program) == "x = 1;\n"


class TestRealisticWorkloads:
    def test_bank_optimized_still_conserves(self):
        from repro.opt.pipeline import optimize

        program = bank_accounts(n_threads=3, n_transfers=3)
        optimize(program)
        for seed in range(8):
            ex = run_random(program, seed=seed)
            b0, b1 = ex.printed[-1]
            assert b0 + b1 == 200

    def test_licm_reduces_lock_held_time(self):
        from repro.opt.pipeline import optimize
        from repro.ir.structured import clone_program

        program = licm_padding(n_threads=2, n_private_stmts=5)
        before = clone_program(program)
        report = optimize(program, fold_output_uses=False)
        assert report.licm.total_moved > 0
        prof_before = critical_section_profile(before, seeds=range(12))
        prof_after = critical_section_profile(program, seeds=range(12))
        assert (
            prof_after["avg_lock_held_steps"]
            < prof_before["avg_lock_held_steps"]
        )

    def test_deterministic_program_output_unchanged(self):
        from repro.opt.pipeline import optimize

        src = """
        total = 0;
        cobegin
        begin lock(L); total = total + 10; unlock(L); end
        begin lock(L); total = total + 20; unlock(L); end
        begin lock(L); total = total + 30; unlock(L); end
        coend
        print(total);
        """
        original = api.front_end(src)
        expected = deterministic_output(original)
        optimized = api.front_end(src)
        optimize(optimized)
        assert deterministic_output(optimized) == expected


class TestReportHelpers:
    def test_measure_form(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        m = measure_form(form.program)
        assert m.pi_terms == 5 and m.phi_terms == 2

    def test_pfg_inventory_totals(self):
        form = Session().analyze(FIGURE2_SOURCE)
        inv = pfg_inventory(form)
        assert inv["nodes_total"] == len(form.graph.blocks)
        assert inv["edges_control"] == sum(
            len(b.succs) for b in form.graph.blocks
        )

"""repro.report helpers."""

from repro.session import Session
from repro.report import FormMetrics, critical_section_profile, measure_form, pfg_inventory
from repro.synth import licm_padding
from tests.conftest import FIGURE2_SOURCE, build


class TestMeasureForm:
    def test_non_ssa_program_counts(self):
        program = build("a = 1; b = a + 2; print(b);")
        m = measure_form(program)
        assert m.pi_terms == 0 and m.phi_terms == 0
        assert m.assignments == 2
        assert m.statements == 3

    def test_as_dict_roundtrip(self):
        program = build("a = 1;")
        d = measure_form(program).as_dict()
        assert set(d) == {
            "pi_terms", "pi_args", "phi_terms", "phi_args",
            "assignments", "statements",
        }

    def test_counts_header_phis(self):
        program = build("i = 0; while (i < 3) { i = i + 1; } print(i);")
        from repro.cssame import build_cssame

        build_cssame(program)
        m = measure_form(program)
        assert m.phi_terms == 1
        assert m.phi_args == 2


class TestInventory:
    def test_totals_consistent(self):
        form = Session().analyze(FIGURE2_SOURCE)
        inv = pfg_inventory(form)
        per_kind = sum(v for k, v in inv.items()
                       if k.startswith("nodes_") and k != "nodes_total")
        assert per_kind == inv["nodes_total"]


class TestProfile:
    def test_profile_keys_and_determinism(self):
        program = licm_padding(2, 2)
        a = critical_section_profile(program, seeds=range(4))
        b = critical_section_profile(program, seeds=range(4))
        assert a == b
        assert set(a) == {
            "avg_lock_held_steps", "avg_lock_blocked_steps",
            "avg_lock_acquisitions", "avg_steps",
        }
        assert a["avg_lock_acquisitions"] == 2.0  # one section per thread

    def test_lock_free_program_zero_profile(self):
        program = build("x = 1; print(x);")
        profile = critical_section_profile(program, seeds=range(2))
        assert profile["avg_lock_held_steps"] == 0.0
        assert profile["avg_steps"] > 0

"""Named workload families."""

import os

import pytest

from repro.cfg.builder import build_flow_graph
from repro.ir.printer import format_ir
from repro.ir.lower import lower_program
from repro.lang.parser import parse
from repro.mutex.identify import identify_mutex_structures
from repro.synth import (
    bank_accounts,
    event_pipeline,
    licm_padding,
    lock_density_sweep,
    paper_figure1,
    paper_figure1_source,
    paper_figure2,
    paper_figure2_source,
    shared_counters,
)
from repro.verify import deterministic_output
from repro.vm.machine import run_random

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)


def _build(source):
    return lower_program(parse(source))


class TestWorkloads:
    def test_bank_conserves_money(self):
        program = bank_accounts(n_threads=3, n_transfers=2)
        for seed in range(6):
            ex = run_random(program, seed=seed)
            (b0, b1) = ex.printed[-1]
            assert b0 + b1 == 200

    def test_counters_deterministic(self):
        program = shared_counters(n_threads=2, n_counters=2, n_incr=2)
        out = deterministic_output(program, seeds=range(8))
        # 2 threads × 2 increments spread over 2 counters → 2 each.
        assert out == (("print", (2, 2)),)

    def test_event_pipeline_deterministic(self):
        program = event_pipeline(n_stages=3)
        out = deterministic_output(program, seeds=range(8))
        # data1 = 1*2+0 = 2; data2 = 2*2+1 = 5; data3 = 5*2+2 = 12
        assert out == (("print", (12,)),)

    def test_licm_padding_has_movable_code(self):
        from repro.cssame import build_cssame
        from repro.opt import lock_independent_code_motion

        program = licm_padding(n_threads=2, n_private_stmts=3)
        build_cssame(program)
        stats = lock_independent_code_motion(program)
        assert stats.total_moved >= 4

    def test_sweep_lock_fraction(self):
        p_full = lock_density_sweep(1.0)
        p_none = lock_density_sweep(0.0)
        g_full = build_flow_graph(p_full)
        g_none = build_flow_graph(p_none)
        assert len(identify_mutex_structures(g_full)["D"]) == 2
        assert "D" not in identify_mutex_structures(g_none)

    def test_paper_programs_build(self):
        from repro.cssame import build_cssame

        for mk in (paper_figure1, paper_figure2):
            form = build_cssame(mk())
            assert form.rewrite_stats.args_removed > 0


class TestPaperFigureSources:
    """The bundled examples and the library's copy are one program."""

    @pytest.mark.parametrize("number", [1, 2])
    def test_example_file_lowers_to_the_same_listing(self, number):
        source = (paper_figure1_source, paper_figure2_source)[number - 1]()
        path = os.path.join(EXAMPLES, f"figure{number}.par")
        with open(path, encoding="utf-8") as handle:
            example = handle.read()
        assert format_ir(_build(example)) == format_ir(_build(source))

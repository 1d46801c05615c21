"""FIG5 — Figure 5: PDCE (5a) and LICM (5b) on the running example.

Regenerates the figure pair: statements removed by parallel dead-code
elimination and statements moved out of mutex bodies by lock-independent
code motion, CSSA vs CSSAME — plus the semantic check that the final
program still has the paper's outcome set.
"""

from repro.bench import register
from repro.opt.pipeline import optimize
from repro.vm.explore import explore

from benchmarks.common import FIGURE2_SOURCE, program_of


@register(
    "figure5",
    group="fast",
    summary="Figure 5: PDCE + LICM payoff and outcome-set preservation",
)
def bench_figure5() -> dict:
    cssa = run(use_mutex=False)
    cssame = run(use_mutex=True)
    assert cssame.pdce.total_removed > cssa.pdce.total_removed
    assert cssame.licm.total_moved >= 2
    assert cssame.statement_count() < cssa.statement_count()
    res = explore(cssame.program)
    assert res.outcomes == {
        (("print", (13,)), ("print", (6,))),
        (("print", (13,)), ("print", (14,))),
    }
    return {
        "pdce_removed": {
            "cssa": cssa.pdce.total_removed,
            "cssame": cssame.pdce.total_removed,
        },
        "licm_moved": {
            "cssa": cssa.licm.total_moved,
            "cssame": cssame.licm.total_moved,
        },
        "final_stmts": {
            "cssa": cssa.statement_count(),
            "cssame": cssame.statement_count(),
        },
        "behaviours": len(res.outcomes),
    }


def run(use_mutex: bool):
    program = program_of(FIGURE2_SOURCE)
    report = optimize(program, use_mutex=use_mutex, fold_output_uses=False)
    return report

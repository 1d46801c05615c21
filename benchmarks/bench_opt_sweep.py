"""SWEEP-OPT — the optimization benefit of CSSAME across workloads.

Extends Figures 4–5 from one example to the named workload families:
constants proven, statements killed by PDCE and statements moved by
LICM, with plain CSSA as the baseline form.
"""

from repro.bench import register
from repro.opt.pipeline import optimize
from repro.synth import (
    bank_accounts,
    licm_padding,
    lock_density_sweep,
    paper_figure1,
    paper_figure2,
    shared_counters,
)

WORKLOADS = {
    "figure1": paper_figure1,
    "figure2": paper_figure2,
    "bank": lambda: bank_accounts(3, 3),
    "counters": lambda: shared_counters(3, 2, 3),
    "licm_padding": lambda: licm_padding(2, 4),
    "half_locked": lambda: lock_density_sweep(0.5, n_stmts=6),
}


def run(name: str, use_mutex: bool):
    program = WORKLOADS[name]()
    report = optimize(program, use_mutex=use_mutex, fold_output_uses=False)
    return {
        "constants": len(report.constprop.constants),
        "killed": report.pdce.total_removed,
        "moved": report.licm.total_moved,
        "stmts": report.statement_count(),
    }


@register(
    "opt_sweep",
    group="fast",
    summary="CSSA vs CSSAME pipeline benefit across workload families",
)
def bench_opt_sweep() -> dict:
    per_workload = {}
    total_cssa = total_cssame = 0
    for name in sorted(WORKLOADS):
        cssa = run(name, use_mutex=False)
        cssame = run(name, use_mutex=True)
        assert cssame["stmts"] <= cssa["stmts"]
        assert cssame["constants"] >= cssa["constants"]
        total_cssa += cssa["stmts"]
        total_cssame += cssame["stmts"]
        per_workload[name] = {"cssa": cssa, "cssame": cssame}
    assert total_cssame < total_cssa
    return {
        "workloads": per_workload,
        "total_stmts": {"cssa": total_cssa, "cssame": total_cssame},
    }

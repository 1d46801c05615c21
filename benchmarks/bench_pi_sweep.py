"""SWEEP-PI — quantifying the paper's core claim.

"Understanding mutual exclusion ... allows the compiler to reduce the
number of data dependencies that need to be considered."  The paper
shows this on one example; this sweep measures it across a family of
programs whose fraction of shared accesses under the lock varies from
0% to 100%: the π-argument reduction achieved by Algorithm A.3 grows
with lock coverage.
"""

from repro.bench import register
from repro.cssame import build_cssame
from repro.ir.structured import clone_program
from repro.report import measure_form
from repro.synth import lock_density_sweep

FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]


def sweep_row(fraction: float) -> tuple:
    base = lock_density_sweep(fraction, n_threads=2, n_stmts=8)
    cssa_prog = clone_program(base)
    build_cssame(cssa_prog, prune=False)
    cssa = measure_form(cssa_prog)

    cssame_prog = clone_program(base)
    build_cssame(cssame_prog, prune=True)
    cssame = measure_form(cssame_prog)

    reduction = (
        0.0
        if cssa.pi_args == 0
        else 100.0 * (cssa.pi_args - cssame.pi_args) / cssa.pi_args
    )
    return fraction, cssa.pi_args, cssame.pi_args, f"{reduction:.0f}%"


@register(
    "pi_sweep",
    group="fast",
    summary="π-argument reduction vs lock density and thread count",
)
def bench_pi_sweep() -> dict:
    rows = [sweep_row(f) for f in FRACTIONS]
    reductions = [(r[1] - r[2]) / r[1] if r[1] else 0.0 for r in rows]
    assert reductions[0] == 0.0
    assert all(b >= a - 1e-9 for a, b in zip(reductions, reductions[1:]))
    assert reductions[-1] > 0.5
    threads = {}
    for n in (2, 3, 4):
        base = lock_density_sweep(0.75, n_threads=n, n_stmts=6)
        stats = build_cssame(base, prune=True).rewrite_stats
        assert stats.args_removed > 0
        threads[str(n)] = {
            "args_before": stats.args_before,
            "args_after": stats.args_after,
            "pis_deleted": stats.pis_deleted,
        }
    return {
        "density": [
            {"fraction": r[0], "cssa_args": r[1], "cssame_args": r[2]}
            for r in rows
        ],
        "threads": threads,
    }

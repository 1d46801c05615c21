"""FIG4 — Figure 4: constant propagation under CSSA vs CSSAME.

Regenerates the figure's comparison: constants proven, uses folded and
branches eliminated on the running example, per form — and times the
CSCC pass itself.
"""

from repro.bench import register
from repro.cssame import build_cssame
from repro.opt import concurrent_constant_propagation

from benchmarks.common import FIGURE2_SOURCE, program_of


@register(
    "figure4",
    group="fast",
    summary="Figure 4: CSCC constant propagation, CSSA vs CSSAME",
)
def bench_figure4() -> dict:
    cssa = run(prune=False)
    cssame = run(prune=True)
    assert len(cssa.constants) == 3
    assert len(cssame.constants) >= 7
    assert cssa.branches_folded == 0 and cssame.branches_folded == 1
    return {
        "constants": {"cssa": len(cssa.constants), "cssame": len(cssame.constants)},
        "branches_folded": {
            "cssa": cssa.branches_folded,
            "cssame": cssame.branches_folded,
        },
    }


def run(prune: bool):
    program = program_of(FIGURE2_SOURCE)
    form = build_cssame(program, prune=prune)
    stats = concurrent_constant_propagation(
        program, form.graph, fold_output_uses=False
    )
    return stats

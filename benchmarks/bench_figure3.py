"""FIG3 — Figure 3: CSSA form (3a) vs CSSAME form (3b).

Regenerates the figure's headline numbers for the running example: five
π terms with 11 total arguments under CSSA, one π term with 2 arguments
under CSSAME — and times both constructions.
"""

from repro.bench import register

from benchmarks.common import FIGURE2_SOURCE, form_metrics


@register(
    "figure3",
    group="fast",
    summary="Figure 3: CSSA vs CSSAME π reduction on the running example",
)
def bench_figure3() -> dict:
    cssa = form_metrics(FIGURE2_SOURCE, prune=False)
    cssame = form_metrics(FIGURE2_SOURCE, prune=True)
    assert (cssa["pi_terms"], cssame["pi_terms"]) == (5, 1)
    assert (cssa["pi_args"], cssame["pi_args"]) == (11, 2)
    assert cssa["phi_terms"] == cssame["phi_terms"] == 2
    assert cssame["pis_deleted"] == 4 and cssame["args_removed"] == 5
    return {
        "cssa": {k: cssa[k] for k in ("pi_terms", "pi_args", "phi_terms")},
        "cssame": {k: cssame[k] for k in ("pi_terms", "pi_args", "phi_terms")},
    }

"""Algorithm A.2 — the full CSSAME pipeline.

1. Build the PFG (extended CFG construction).
2. Identify mutex structures (Algorithm A.1).
3. Compute the CSSA form (sequential SSA + π placement).
4. Rewrite π terms using the mutex structures (Algorithm A.3).

``build_cssame(program, prune=False)`` stops after step 3, yielding the
plain CSSA form used as the comparison baseline throughout the paper's
figures.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.dominance import compute_postdominators
from repro.cssa.builder import CSSAForm, build_cssa
from repro.cssame.ordering import OrderingStats, prune_pi_terms_by_ordering
from repro.cssame.rewrite import RewriteStats, rewrite_pi_terms
from repro.ir.structured import ProgramIR
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.structures import MutexStructure
from repro.obs.trace import get_tracer

__all__ = ["CSSAMEForm", "build_cssame"]


class CSSAMEForm(CSSAForm):
    """A :class:`~repro.cssa.builder.CSSAForm` plus mutex information.

    Attributes
    ----------
    structures:
        Lock name → :class:`~repro.mutex.structures.MutexStructure`.
    rewrite_stats:
        What Algorithm A.3 removed (``None`` when ``prune=False``).
    """

    def __init__(
        self,
        cssa: CSSAForm,
        structures: dict[str, MutexStructure],
        rewrite_stats: Optional[RewriteStats],
        ordering_stats: Optional[OrderingStats] = None,
    ) -> None:
        super().__init__(cssa.program, cssa.graph, cssa.ssa, cssa.pis, cssa.shared)
        self.structures = structures
        self.rewrite_stats = rewrite_stats
        #: event-ordering pruning results (None when ``prune=False``)
        self.ordering_stats = ordering_stats

    def mutex_bodies(self) -> list:
        return [body for s in self.structures.values() for body in s.bodies]


def build_cssame(
    program: ProgramIR,
    prune: bool = True,
) -> CSSAMEForm:
    """Convert a non-SSA ``program`` (in place) to CSSAME form.

    With ``prune=False`` the π terms are left untouched (plain CSSA,
    the baseline the paper compares against in Figures 3–4); in that
    mode the inherited Lee-et-al. guaranteed-ordering refinement (π
    arguments whose definition must execute after the use) is skipped
    too.
    """
    tracer = get_tracer()
    with tracer.span("build-cssame", prune=prune) as outer:
        with tracer.span("cssa"):
            cssa = build_cssa(program)
        with tracer.span("identify-mutex") as sp:
            pdomtree = compute_postdominators(cssa.graph)
            structures = identify_mutex_structures(
                cssa.graph, cssa.ssa.domtree, pdomtree
            )
            sp.set(
                structures=len(structures),
                bodies=sum(len(s) for s in structures.values()),
            )
        stats: Optional[RewriteStats] = None
        ordering_stats: Optional[OrderingStats] = None
        if prune:
            with tracer.span("rewrite-pi") as sp:
                stats = rewrite_pi_terms(program, cssa.graph, structures)
                sp.set(
                    args_removed=stats.args_removed,
                    pis_deleted=stats.pis_deleted,
                )
            with tracer.span("ordering") as sp:
                ordering_stats = prune_pi_terms_by_ordering(
                    program, cssa.graph, cssa.ssa.domtree
                )
                sp.set(
                    args_removed=ordering_stats.args_removed,
                    pis_deleted=ordering_stats.pis_deleted,
                )
        form = CSSAMEForm(cssa, structures, stats, ordering_stats)
        outer.set(mutex_bodies=len(form.mutex_bodies()))
    return form

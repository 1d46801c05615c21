"""The optimization pipeline of the paper's running example.

Figures 2–5 walk one program through: CSSAME construction → constant
propagation (Fig. 4) → parallel dead code elimination (Fig. 5a) → lock
independent code motion (Fig. 5b).  :func:`optimize` packages exactly
that sequence, with ``use_mutex=False`` degrading the form to plain CSSA
so the two columns of each figure can be compared.

Pass-interaction contract: CSSAME is built **once**; every later pass
keeps the SSA chains consistent and rebuilds only the flow graph it
needs.  Version numbers therefore stay stable across passes, which is
why the listings come out with the same names the paper prints.
"""

from __future__ import annotations

from typing import Optional

from repro.cssame.builder import CSSAMEForm, build_cssame
from repro.ir.printer import format_ir
from repro.ir.structured import ProgramIR, count_statements
from repro.obs.events import PassEnd, PassStart
from repro.obs.trace import get_tracer
from repro.opt.concprop import ConstPropStats, concurrent_constant_propagation
from repro.opt.licm import LICMStats, lock_independent_code_motion
from repro.opt.lvn import LVNStats, local_value_numbering
from repro.opt.pdce import PDCEStats, parallel_dead_code_elimination
from repro.opt.simplify import simplify_structure

__all__ = ["DEFAULT_PASSES", "KNOWN_PASSES", "OptimizationReport", "optimize"]

KNOWN_PASSES = ("constprop", "lvn", "pdce", "licm")
#: default pipeline = the paper's Figures 4-5 sequence (lvn is opt-in)
DEFAULT_PASSES = ("constprop", "pdce", "licm")


class OptimizationReport:
    """Everything one pipeline run produced."""

    def __init__(self, program: ProgramIR, form: CSSAMEForm) -> None:
        self.program = program
        self.form = form
        #: clone of the program in CSSA(ME) form, before any pass ran —
        #: the equality baseline for semantic verification (see
        #: repro.verify.equivalence's atomicity contract)
        self.baseline: Optional[ProgramIR] = None
        self.constprop: Optional[ConstPropStats] = None
        self.lvn: Optional[LVNStats] = None
        self.pdce: Optional[PDCEStats] = None
        self.licm: Optional[LICMStats] = None
        self.listings: dict[str, str] = {}
        #: True only while no transform has run since build_cssame, i.e.
        #: while ``form.graph`` still describes ``program`` exactly
        self.graph_is_fresh = True
        self.simplified_items = 0

    def listing(self, phase: str = "final") -> str:
        return self.listings[phase]

    def statement_count(self) -> int:
        return count_statements(self.program)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OptimizationReport(stmts={self.statement_count()}, "
            f"constprop={self.constprop}, pdce={self.pdce}, licm={self.licm})"
        )


def optimize(
    program: ProgramIR,
    passes: tuple[str, ...] = DEFAULT_PASSES,
    use_mutex: bool = True,
    fold_output_uses: bool = True,
) -> OptimizationReport:
    """Run the paper's pipeline on a *non-SSA* ``program``, in place.

    Parameters
    ----------
    passes:
        Subset (in order) of :data:`KNOWN_PASSES`;
        the default is the paper's pipeline (value numbering is the
        Section 7 "translated scalar optimization" demo, opt-in).
    use_mutex:
        ``True`` builds the CSSAME form (Algorithm A.3 prunes π terms);
        ``False`` leaves plain CSSA — the paper's comparison baseline.

    The structural cleanup (:func:`~repro.opt.simplify.simplify_structure`)
    always runs after the passes.
    """
    unknown = set(passes) - set(KNOWN_PASSES)
    if unknown:
        raise ValueError(f"unknown passes: {sorted(unknown)}")

    tracer = get_tracer()
    with tracer.span(
        "optimize", passes=",".join(passes), use_mutex=use_mutex
    ) as pipeline_span:
        form = build_cssame(program, prune=use_mutex)
        report = OptimizationReport(program, form)
        from repro.ir.structured import clone_program

        report.baseline = clone_program(program)
        report.listings["cssa" if not use_mutex else "cssame"] = format_ir(program)

        for name in passes:
            if tracer.enabled:
                tracer.event(PassStart(name))
            with tracer.span(f"pass:{name}") as span:
                if name == "constprop":
                    # The form's graph and mutex structures fit the program
                    # only until the first transform; after one, the pass
                    # rebuilds the PFG from the current program (and runs
                    # A.1 on it if it needs the mutex structures).
                    fresh = report.graph_is_fresh
                    report.constprop = concurrent_constant_propagation(
                        program,
                        form.graph if fresh else None,
                        fold_output_uses=fold_output_uses,
                        structures=form.structures if fresh else None,
                    )
                    stats = {
                        "constants": len(report.constprop.constants),
                        "uses_replaced": report.constprop.uses_replaced,
                        "branches_folded": report.constprop.branches_folded,
                    }
                elif name == "lvn":
                    report.lvn = local_value_numbering(program)
                    stats = {"replaced": report.lvn.expressions_replaced}
                elif name == "pdce":
                    report.pdce = parallel_dead_code_elimination(program)
                    stats = {
                        "removed": report.pdce.total_removed,
                        "regions_removed": report.pdce.regions_removed,
                    }
                else:  # licm
                    report.licm = lock_independent_code_motion(program)
                    stats = {
                        "moved": report.licm.total_moved,
                        "locks_removed": report.licm.locks_removed,
                    }
                report.graph_is_fresh = False
                report.listings[name] = format_ir(program)
                span.set(**stats)
            if tracer.enabled:
                tracer.event(PassEnd(name, stats))

        with tracer.span("simplify") as span:
            report.simplified_items = simplify_structure(program)
            span.set(items=report.simplified_items)
        report.listings["final"] = format_ir(program)
        pipeline_span.set(statements=report.statement_count())
    return report

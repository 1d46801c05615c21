"""CSSA construction driver.

``build_cssa`` performs the substrate part of the paper's Algorithm A.2:
build the PFG, compute sequential SSA (with coend trimming), place π
terms, and attach the non-control PFG edge sets.  The full CSSAME
pipeline (which additionally identifies mutex structures and rewrites π
terms) is :func:`repro.cssame.builder.build_cssame`.
"""

from __future__ import annotations

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import PFGEdgeInputs, collect_access_sites
from repro.cfg.graph import FlowGraph
from repro.cssa.pi import place_pi_terms
from repro.ir.stmts import Pi
from repro.ir.structured import ProgramIR
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer
from repro.ssa.construct import SSAContext, build_ssa

__all__ = ["CSSAForm", "build_cssa"]


class CSSAForm:
    """The result of CSSA construction.

    Attributes
    ----------
    program:
        The program, now in CSSA form (φ and π terms materialized).
    graph:
        The PFG the form was built on, with conflict/mutex/sync edges
        (each list computed on its first read).
    ssa:
        The :class:`~repro.ssa.construct.SSAContext` (dominator tree,
        entry defs, version counters).
    pis:
        All π terms placed.
    shared:
        The shared-variable set used for placement.
    """

    def __init__(
        self,
        program: ProgramIR,
        graph: FlowGraph,
        ssa: SSAContext,
        pis: list[Pi],
        shared: set[str],
    ) -> None:
        self.program = program
        self.graph = graph
        self.ssa = ssa
        self.pis = pis
        self.shared = shared

    def live_pis(self) -> list[Pi]:
        """π terms still attached to the tree (some passes delete πs)."""
        return [pi for pi in self.pis if pi.parent is not None]


def build_cssa(program: ProgramIR) -> CSSAForm:
    """Convert a non-SSA ``program`` (in place) to CSSA form."""
    graph = build_flow_graph(program)
    ssa = build_ssa(program, graph)
    edge_inputs = PFGEdgeInputs(graph, collect_access_sites(graph))
    shared = edge_inputs.shared()
    pis = place_pi_terms(program, graph, edge_inputs)
    edge_inputs.drop_sites()
    # π placement moves each rewritten read to its π's control argument
    # in the same block and adds no real definition, so the block-level
    # conflict edges of the pre-π sites are those of the CSSA form.
    # Few callers read the edge lists, so each is built on first read.
    graph.set_edge_inputs(edge_inputs)
    if get_tracer().enabled:
        record_work(
            "cssa",
            pi_terms=len(pis),
            conflict_args=sum(len(pi.conflicts) for pi in pis),
            conflict_sets=len({id(pi.conflict_set) for pi in pis}),
            shared_vars=len(shared),
            conflict_edges=graph.edge_inputs.count_conflict_edges(),
        )
    return CSSAForm(program, graph, ssa, pis, shared)

"""Parallel Dead Code Elimination (Section 5.2).

Cytron-style mark/sweep DCE adapted to explicitly parallel programs:

* seeds: statements assumed to affect the output — ``print``, opaque
  calls, and synchronization operations (``lock``/``unlock``/``set``/
  ``wait``; removing empty critical sections is LICM's job, not DCE's);
* a live statement makes the definitions feeding its uses live — and
  because φ **and π terms are followed like definitions** (Algorithm
  A.4), a use that is live in one thread keeps alive the concurrent
  definitions that may reach it through π conflict arguments.  This is
  what makes the paper's example work: ``b1 = 8`` in T0 stays alive
  because T1's ``tb0 = π(b0, b1)`` reaches a printed value, while a
  sequential DCE would wrongly kill it;
* a live statement makes the branches it is control dependent on live
  (control dependence = post-dominance frontier);
* a ``cobegin`` is live if any child thread contains a live statement;
  when exactly one thread survives, the construct is replaced by that
  thread's sequential code (paper modification 2).
"""

from __future__ import annotations

from repro.cfg.builder import build_flow_graph
from repro.cfg.dominance import compute_postdominators, postdominance_frontiers
from repro.cfg.graph import FlowGraph
from repro.errors import TransformError
from repro.ir.stmts import (
    IRStmt,
    Phi,
    SBarrier,
    Pi,
    SAssign,
    SBranch,
    SCallStmt,
    SLock,
    SPrint,
    SSetEvent,
    SSkip,
    SUnlock,
    SWaitEvent,
)
from repro.ir.structured import (
    Body,
    CobeginRegion,
    IfRegion,
    ProgramIR,
    WhileRegion,
    iter_statements,
    remove_stmt,
)
from repro.obs.prof import record_work

__all__ = ["PDCEStats", "parallel_dead_code_elimination"]

_SEED_KINDS = (SPrint, SCallStmt, SLock, SUnlock, SSetEvent, SWaitEvent, SBarrier)


class PDCEStats:
    """Outcome of one PDCE run."""

    def __init__(self) -> None:
        self.stmts_removed = 0
        self.phis_removed = 0
        self.pis_removed = 0
        self.regions_removed = 0
        self.threads_removed = 0
        self.cobegins_sequentialized = 0

    @property
    def total_removed(self) -> int:
        return self.stmts_removed + self.phis_removed + self.pis_removed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PDCEStats(stmts={self.stmts_removed}, phis={self.phis_removed}, "
            f"pis={self.pis_removed}, regions={self.regions_removed}, "
            f"sequentialized={self.cobegins_sequentialized})"
        )


def _mark_live(
    program: ProgramIR, graph: FlowGraph
) -> tuple[set[IRStmt], int]:
    """Mark phase; returns (live set, statements scanned for seeds)."""
    pdom = compute_postdominators(graph)
    pdf = postdominance_frontiers(graph, pdom)

    live: set[IRStmt] = set()
    worklist: list[IRStmt] = []

    def mark(stmt: IRStmt) -> None:
        if stmt not in live:
            live.add(stmt)
            worklist.append(stmt)

    scanned = 0
    for stmt, _ctx in iter_statements(program):
        scanned += 1
        if isinstance(stmt, _SEED_KINDS):
            mark(stmt)

    #: π conflict sets whose members' definitions are already marked
    marked_sets: set[int] = set()
    while worklist:
        stmt = worklist.pop()
        # Data dependence: definitions feeding this statement are live.
        # A conflict set shared by many πs is followed once.
        if isinstance(stmt, Pi):
            uses = [stmt.control]
            if id(stmt.conflict_set) not in marked_sets:
                marked_sets.add(id(stmt.conflict_set))
                uses.extend(stmt.conflict_set)
        else:
            uses = stmt.uses()
        for use in uses:
            site = use.def_site
            if isinstance(site, IRStmt):
                mark(site)
        # Control dependence: branches this statement depends on are live.
        if graph.contains_stmt(stmt):
            block_id = graph.block_of(stmt).id
            for ctrl_id in pdf[block_id]:
                ctrl_block = graph.blocks[ctrl_id]
                if ctrl_block.stmts and isinstance(ctrl_block.stmts[-1], SBranch):
                    mark(ctrl_block.stmts[-1])
    return live, scanned


class _Sweeper:
    def __init__(self, live: set[IRStmt], stats: PDCEStats) -> None:
        self.live = live
        self.stats = stats

    def sweep_body(self, body: Body) -> None:
        """Sweep ``body`` and the regions in it; the dead items of
        ``body`` itself leave in one pass at the end."""
        dead = []
        for item in list(body.items):
            if isinstance(item, IRStmt):
                is_dead = self._dead_stmt(item)
            elif isinstance(item, IfRegion):
                is_dead = self._dead_if(item)
            elif isinstance(item, WhileRegion):
                is_dead = self._dead_while(item)
            elif isinstance(item, CobeginRegion):
                is_dead = self._dead_cobegin(body, item)
            else:
                is_dead = False
            if is_dead:
                dead.append(item)
        if dead:
            body.remove_all(dead)

    def _dead_stmt(self, stmt: IRStmt) -> bool:
        """Is ``stmt`` removable?  Counts it if so."""
        if stmt in self.live:
            return False
        if isinstance(stmt, (SAssign, Phi, Pi, SSkip)):
            if isinstance(stmt, Phi):
                self.stats.phis_removed += 1
            elif isinstance(stmt, Pi):
                self.stats.pis_removed += 1
            else:
                self.stats.stmts_removed += 1
            return True
        return False

    def _assert_no_live(self, body: Body) -> None:
        for stmt, _ctx in iter_statements_body(body):
            if stmt in self.live:
                raise TransformError(
                    "live statement inside a region with a dead branch"
                )

    def _dead_if(self, region: IfRegion) -> bool:
        if region.branch in self.live:
            self.sweep_body(region.then_body)
            self.sweep_body(region.else_body)
            return False
        self._assert_no_live(region.then_body)
        self._assert_no_live(region.else_body)
        self.stats.regions_removed += 1
        return True

    def _dead_while(self, region: WhileRegion) -> bool:
        if region.branch in self.live:
            for header in list(region.header_phis):
                if self._dead_stmt(header):
                    remove_stmt(header)
            self.sweep_body(region.body)
            return False
        self._assert_no_live(region.body)
        for header in list(region.header_phis):
            if header in self.live:
                raise TransformError("live loop-header term in a dead loop")
        self.stats.regions_removed += 1
        return True

    def _dead_cobegin(self, body: Body, region: CobeginRegion) -> bool:
        for thread in region.threads:
            self.sweep_body(thread.body)
        surviving = [t for t in region.threads if len(t.body) > 0]
        removed = len(region.threads) - len(surviving)
        self.stats.threads_removed += removed
        if len(surviving) == len(region.threads):
            return False
        if len(surviving) >= 2:
            region.threads = surviving
            return False
        if len(surviving) == 1:
            # Paper modification 2: one live thread → sequential code.
            body.replace(region, list(surviving[0].body.items))
            self.stats.cobegins_sequentialized += 1
            return False
        self.stats.regions_removed += 1
        return True


def iter_statements_body(body: Body):
    """Iterate statements under one body (helper for assertions)."""
    from repro.ir.structured import _iter_body  # shared traversal

    return _iter_body(body, (), True)


def parallel_dead_code_elimination(program: ProgramIR) -> PDCEStats:
    """Run PDCE on an SSA/CSSA/CSSAME-form ``program``, in place."""
    live, scanned = _mark_live(program, build_flow_graph(program))
    stats = PDCEStats()
    _Sweeper(live, stats).sweep_body(program.body)
    record_work(
        "pdce",
        stmts_scanned=scanned,
        marked_live=len(live),
        removed=stats.total_removed,
        regions_removed=stats.regions_removed,
    )
    return stats

"""Algorithm A.3 — rewrite π terms using mutual exclusion.

For every π term located inside a mutex body ``b`` of structure ``M_L``,
each conflict argument ``d`` that comes from *another* body ``b'`` of
the same structure is removed when either sufficient condition holds:

* the protected use is **not upward-exposed** from ``b`` (Theorem 2), or
* ``d`` **does not reach the exit node** of ``b'`` (Theorem 1).

A π term whose conflict arguments all disappear carries only its control
argument; it is deleted and its uses are redirected to the control
argument (``chain(u)``), exactly as A.3 lines 21–25 prescribe.

Theorem 1 depends only on the definition and Theorem 2 only on the use,
so every π with the same conflict set, in the same body, whose use is
equally exposed loses the same arguments: the theorems are applied once
per such key and the πs share the resulting set.  The per-argument
decision is :class:`~repro.cssame.exposure.MutexBodyOracle`'s, which
CSCC also asks before it stores a constant φ.  The decision events
are still emitted per π and per argument, in π order.
"""

from __future__ import annotations

from repro.cfg.graph import FlowGraph
from repro.cssame.exposure import MutexBodyOracle
from repro.ir.expr import EVar
from repro.ir.stmts import ConflictSet, Pi
from repro.ir.structured import Body, ProgramIR, iter_statements, remove_stmt
from repro.mutex.structures import MutexBody, MutexStructure
from repro.obs.events import PiArgRemoved, PiDeleted
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer
from repro.ssa.chains import build_use_map

__all__ = ["RewriteStats", "delete_reduced_pis", "rewrite_pi_terms"]


class RewriteStats:
    """What Algorithm A.3 accomplished (consumed by tests and benches)."""

    __slots__ = ("pis_before", "pis_deleted", "args_before", "args_removed")

    def __init__(self) -> None:
        self.pis_before = 0
        self.pis_deleted = 0
        self.args_before = 0
        self.args_removed = 0

    @property
    def pis_after(self) -> int:
        return self.pis_before - self.pis_deleted

    @property
    def args_after(self) -> int:
        return self.args_before - self.args_removed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RewriteStats(pis {self.pis_before}->{self.pis_after}, "
            f"conflict args {self.args_before}->{self.args_after})"
        )


def _collect_pis(program: ProgramIR) -> list[Pi]:
    return [
        stmt for stmt, _ctx in iter_statements(program) if isinstance(stmt, Pi)
    ]


def delete_reduced_pis(
    program: ProgramIR, graph: FlowGraph, pis: list[Pi]
) -> list[tuple[Pi, int]]:
    """Delete every π of ``pis`` reduced to its control argument.

    Uses of a deleted π are redirected to its control argument
    (``chain(u)``, A.3 lines 21–25).  Each :class:`Body` and graph
    block loses its πs in one pass.  Returns ``(π, uses redirected)``
    for each deleted π, in ``pis`` order.
    """
    reduced = [pi for pi in pis if not pi.conflicts and pi.parent is not None]
    if not reduced:
        return []
    usemap = build_use_map(program)
    deleted: list[tuple[Pi, int]] = []
    by_body: dict[int, tuple[Body, list[Pi]]] = {}
    by_block: dict[int, set[int]] = {}
    for pi in reduced:
        control = pi.control
        uses = usemap.uses_of(pi)
        for use, _holder in uses:
            use.name = control.name
            use.version = control.version
            use.def_site = control.def_site
        if isinstance(pi.parent, Body):
            by_body.setdefault(id(pi.parent), (pi.parent, []))[1].append(pi)
        else:
            remove_stmt(pi)
        by_block.setdefault(graph.block_of(pi).id, set()).add(pi.uid)
        deleted.append((pi, len(uses)))
    for body, doomed in by_body.values():
        body.remove_all(doomed)
    for block_id, uids in by_block.items():
        block = graph.blocks[block_id]
        block.stmts = [s for s in block.stmts if s.uid not in uids]
    graph.reindex_statements()
    return deleted


class _Rewrite:
    """Theorems 1 and 2 applied once per (conflict set, mutex body,
    exposure of the use): every π of that key loses the same
    arguments."""

    def __init__(self, graph: FlowGraph) -> None:
        self.theorems = MutexBodyOracle(graph)
        #: (set, body identity, use exposed, variable) → (kept set,
        #: removed (argument, reason) pairs)
        self._results: dict[tuple, tuple[ConflictSet, list]] = {}

    def result(
        self,
        cset: ConflictSet,
        body: MutexBody,
        structure: MutexStructure,
        exposed: bool,
        var: str,
    ) -> tuple[ConflictSet, list]:
        key = (cset, id(body), exposed, var)
        found = self._results.get(key)
        if found is not None:
            return found
        kept: list[EVar] = []
        removed: list[tuple[EVar, str]] = []
        for arg in cset:
            reason = self.theorems.removal(arg.def_site, structure, body, exposed)
            if reason is None:
                kept.append(arg)
            else:
                removed.append((arg, reason))
        found = self._results[key] = (ConflictSet.of(kept), removed)
        return found


def rewrite_pi_terms(
    program: ProgramIR,
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
) -> RewriteStats:
    """Run Algorithm A.3 in place; returns rewrite statistics."""
    stats = RewriteStats()
    tracer = get_tracer()
    pis = _collect_pis(program)
    stats.pis_before = len(pis)
    stats.args_before = sum(len(pi.conflicts) for pi in pis)

    rewrite = _Rewrite(graph)
    for _lock_name, structure in sorted(structures.items()):
        for body in structure.bodies:
            for block_id in sorted(body.nodes):
                block = graph.blocks[block_id]
                for stmt in block.stmts:
                    if not isinstance(stmt, Pi):
                        continue
                    # Theorem 2's condition depends only on the use.
                    exposed = rewrite.theorems.exposed(body, stmt.var_name, stmt)
                    kept, removed = rewrite.result(
                        stmt.conflict_set, body, structure, exposed, stmt.var_name
                    )
                    stmt.conflict_set = kept
                    stats.args_removed += len(removed)
                    if tracer.enabled:
                        for arg, reason in removed:
                            _record_removal(tracer, structure, stmt, arg, reason)

    for pi, nuses in delete_reduced_pis(program, graph, pis):
        stats.pis_deleted += 1
        if tracer.enabled:
            tracer.event(
                PiDeleted(pi.var_name, pi.target, pi.control.ssa_name, nuses)
            )
            tracer.counter("cssame.pis_deleted").inc()
    record_work(
        "rewrite-pi",
        pi_terms=stats.pis_before,
        conflict_args=stats.args_before,
        args_removed=stats.args_removed,
        pis_deleted=stats.pis_deleted,
        sets_rewritten=len(rewrite._results),
    )
    return stats


def _record_removal(
    tracer, structure: MutexStructure, pi: Pi, arg: EVar, reason: str
) -> None:
    """Log one A.3 conflict-argument removal with its theorem."""
    if not tracer.enabled:
        return
    tracer.event(
        PiArgRemoved(structure.lock_name, pi.var_name, pi.target, arg.ssa_name, reason)
    )
    tracer.counter("cssame.args_removed").inc()
    tracer.counter(f"cssame.args_removed.{reason}").inc()

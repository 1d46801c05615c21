"""π-term placement (CSSA, paper Section 4).

For every statement that uses a shared variable ``v`` while concurrent
threads contain definitions of ``v`` that may reach it, a π term

    ``t = π(v_ctrl, v_d1, ..., v_dn)``

is inserted immediately before the statement and the statement's uses of
``v`` are rewritten to ``t``.  The control argument is the use's FUD
chain; the conflict arguments are the SSA names of the definitions of
``v`` that Definition 1's access relation puts in parallel with the use
(:meth:`~repro.cfg.conflicts.AccessRelation.parallel_defs`).  φ/π defs
are no memory accesses, so only real definitions count, matching Figure
3a where ``ta4 = π(a4, a1, a2)`` lists the two real defs of ``a`` in T0
but not the φ ``a3``.

π terms are *not* placed on φ arguments: the coend φ already merges
thread-exit values, and a π there would be redundant with the πs
protecting the underlying uses.

Temporaries are named ``t`` + the control argument's SSA name (``ta1``
for a π whose control argument is ``a1``), uniquified by suffixing a
counter — the same convention visible in the paper's figures.
"""

from __future__ import annotations

from repro.cfg.conflicts import AccessRelation
from repro.cfg.graph import FlowGraph
from repro.errors import SSAError
from repro.ir.expr import EVar
from repro.ir.stmts import ConflictSet, IRStmt, Phi, Pi
from repro.ir.structured import (
    Body,
    IfRegion,
    ProgramIR,
    WhileRegion,
)

__all__ = ["place_pi_terms"]


def _structural_insert_before(
    stmt: IRStmt, pi: Pi, batches: dict[int, tuple[Body, list]]
) -> None:
    """Insert ``pi`` immediately before ``stmt`` in the structured tree.

    Insertions into a :class:`Body` are queued in ``batches`` (body id →
    (body, (anchor, π) pairs)) and applied by the caller, one pass per
    body.
    """
    parent = stmt.parent
    if isinstance(parent, Body):
        anchor = stmt
    elif isinstance(parent, IfRegion):
        # stmt is the branch condition: the π evaluates just before the
        # region in the enclosing body.
        parent, anchor = parent.parent, parent
    elif isinstance(parent, WhileRegion):
        if stmt is parent.branch:
            # Loop condition: π must re-evaluate every iteration, so it
            # joins the loop-header terms (after any φs already there).
            parent.add_header_stmt(pi)
            return
        # stmt is itself a loop-header term: insert before it.
        for i, header in enumerate(parent.header_phis):
            if header is stmt:
                pi.parent = parent
                parent.header_phis.insert(i, pi)
                return
        raise SSAError(f"cannot find structural position of {stmt!r}")
    else:
        raise SSAError(f"cannot find structural position of {stmt!r}")
    batches.setdefault(id(parent), (parent, []))[1].append((anchor, pi))


def place_pi_terms(
    program: ProgramIR,
    graph: FlowGraph,
    accesses: AccessRelation,
) -> list[Pi]:
    """Insert π terms for every conflicting use; returns them.

    ``accesses`` is the graph's access relation.
    """
    shared = accesses.shared()
    # The π conflict set of (v, thread path), built once and shared by
    # every π of v on that path.
    conflict_sets: dict[tuple[str, tuple], ConflictSet] = {}

    pis: list[Pi] = []
    # (stmt, block_id, uses by shared variable) for every candidate
    # statement, walking blocks so positions come from the graph.
    pending: list[tuple[IRStmt, int, dict[str, list[EVar]]]] = []
    for block in graph.blocks:
        for stmt in block.stmts:
            if isinstance(stmt, (Phi, Pi)):
                continue
            groups: dict[str, list[EVar]] = {}
            for use in stmt.uses():
                if use.name in shared:
                    groups.setdefault(use.name, []).append(use)
            if groups:
                pending.append((stmt, block.id, groups))

    insertions: dict[int, list[tuple[IRStmt, Pi]]] = {}
    batches: dict[int, tuple[Body, list]] = {}
    for stmt, block_id, groups in pending:
        block = graph.blocks[block_id]
        for var in sorted(groups):
            key = (var, block.thread_path)
            conflicts = conflict_sets.get(key)
            if conflicts is None:
                # The concurrent definitions in (block, position) order,
                # one per statement: no duplicates to drop.
                conflicts = conflict_sets[key] = ConflictSet.of(
                    EVar(var, d.stmt.version, d.stmt)
                    for d in accesses.parallel_defs(*key)
                )
            if not conflicts:
                continue
            uses = groups[var]
            first = uses[0]
            control = EVar(first.name, first.version, first.def_site)
            temp = program.fresh_name(f"t{control.ssa_name}")
            pi = Pi(temp, var, control, conflicts)
            # Rewrite the statement's uses of var to the π temporary.
            for use in uses:
                use.name = temp
                use.version = None
                use.def_site = pi
            insertions.setdefault(block_id, []).append((stmt, pi))
            _structural_insert_before(stmt, pi, batches)
            pis.append(pi)
    for body, pairs in batches.values():
        body.insert_all_before(pairs)

    # Mirror the insertions into the graph blocks, one pass per block.
    for block_id, pairs in insertions.items():
        block = graph.blocks[block_id]
        before: dict[int, list[Pi]] = {}
        for stmt, pi in pairs:
            before.setdefault(stmt.uid, []).append(pi)
        stmts: list[IRStmt] = []
        for existing in block.stmts:
            stmts.extend(before.pop(existing.uid, ()))
            stmts.append(existing)
        if before:  # pragma: no cover - defensive
            raise SSAError(f"π anchor not found in block B{block_id}")
        block.stmts = stmts
    graph.reindex_statements()
    return pis

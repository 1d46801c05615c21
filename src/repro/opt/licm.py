"""Lock-Independent Code Motion (Section 5.3, Algorithm A.5).

A statement inside a mutex body is *lock independent* (Definition 5)
when nothing it touches can be modified concurrently: no variable it
uses or defines has a concurrent write, and no variable it defines has a
concurrent read.  Such statements compute the same value inside or
outside the critical section, so they can be hoisted to the *pre-mutex*
landing point (just before the Lock) or sunk to the *post-mutex* landing
point (just after the Unlock), provided the motion preserves the
statement's own dependences (Theorem 3):

* **hoisting** applies to statements in the chain of blocks starting at
  the Lock node's successor (each of which dominates the remaining
  body); a statement moves when its operands have no definition among
  the statements still in the block before it — and, beyond the paper's
  letter, when no earlier remaining statement in the block reads or
  writes what it writes (anti/output dependences; see DESIGN.md);
* **sinking** applies symmetrically to the chain of blocks ending at the
  Unlock node's unique predecessor; a statement moves when its value has
  no use among the statements after it in the block, it does not rewrite
  a variable a later statement redefines, and none of its operands are
  redefined later in the block.

Only plain assignments move: calls and prints are observable effects
whose serialization the lock may be intentionally providing, and
synchronization operations obviously stay.  After motion, a mutex body
left with no statements at all is removed together with its Lock/Unlock
pair (A.5 lines 43–45).
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.blocks import BasicBlock, NodeKind
from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.cfg.graph import FlowGraph
from repro.ir.stmts import IRStmt, Pi, SAssign, SLock, SUnlock
from repro.ir.structured import Body, ProgramIR, remove_stmt
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.structures import MutexBody
from repro.obs.prof import record_work

__all__ = ["LICMStats", "lock_independent_code_motion"]


class LICMStats:
    """Outcome of one LICM run."""

    def __init__(self) -> None:
        self.hoisted = 0
        self.sunk = 0
        self.bodies_emptied = 0
        self.locks_removed = 0

    @property
    def total_moved(self) -> int:
        return self.hoisted + self.sunk

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LICMStats(hoisted={self.hoisted}, sunk={self.sunk}, "
            f"locks_removed={self.locks_removed})"
        )


class _Conflicts:
    """Definition 5, asked against Definition 1's access relation."""

    def __init__(self, graph: FlowGraph) -> None:
        # Built once, before any motion: the answers are per (variable,
        # thread path) and motion never changes a path.
        self.accesses = AccessRelation(graph, collect_access_sites(graph))
        #: Definition 5 checks performed — LICM's deterministic work
        #: measure (see repro.obs.prof)
        self.independence_checks = 0

    def lock_independent(self, stmt: IRStmt, block: BasicBlock) -> bool:
        """Definition 5, conservatively: no concurrent write to anything
        the statement touches, no concurrent read of anything it writes."""
        self.independence_checks += 1
        if not isinstance(stmt, SAssign):
            return False
        if _contains_call(stmt.value):
            return False  # opaque calls may observe shared state
        return self.accesses_independent(stmt, block)

    def accesses_independent(self, stmt: IRStmt, block: BasicBlock) -> bool:
        """The Definition 5 access conditions alone (any stmt kind)."""
        path = block.thread_path
        for name in _used_vars(stmt):
            if self.accesses.parallel_defs(name, path):
                return False
        target = stmt.def_name()
        return target is None or not self.accesses.parallel(target, path)


def _contains_call(expr) -> bool:
    from repro.ir.expr import EBin, ECall, EUn

    if isinstance(expr, ECall):
        return True
    if isinstance(expr, EBin):
        return _contains_call(expr.left) or _contains_call(expr.right)
    if isinstance(expr, EUn):
        return _contains_call(expr.operand)
    return False


def _defined_vars(stmt: IRStmt) -> set[str]:
    name = stmt.def_name()
    return {name} if name is not None else set()


def _used_vars(stmt: IRStmt) -> set[str]:
    if isinstance(stmt, Pi):
        # A conflict set's names, computed once per set.
        return {stmt.control.name} | stmt.conflict_set.names
    return {use.name for use in stmt.uses()}


class _BodyMotion:
    """Runs Algorithm A.5 on one mutex body."""

    def __init__(
        self,
        graph: FlowGraph,
        conflicts: _Conflicts,
        body: MutexBody,
        stats: LICMStats,
    ) -> None:
        self.graph = graph
        self.conflicts = conflicts
        self.body = body
        self.stats = stats
        self.lock_stmt: SLock = graph.blocks[body.lock_node].stmts[0]
        self.unlock_stmt: SUnlock = graph.blocks[body.unlock_node].stmts[0]

    # -- structural landing pads ------------------------------------------

    def _move_to_pre(self, stmt: IRStmt) -> None:
        remove_stmt(stmt)
        parent = self.lock_stmt.parent
        assert isinstance(parent, Body)
        parent.insert_before(self.lock_stmt, stmt)
        self.stats.hoisted += 1

    def _move_to_post(self, stmt: IRStmt) -> None:
        remove_stmt(stmt)
        parent = self.unlock_stmt.parent
        assert isinstance(parent, Body)
        parent.insert_after(self.unlock_stmt, stmt)
        self.stats.sunk += 1

    # -- hoisting ------------------------------------------------------------

    def hoist(self) -> None:
        block = self._unique_succ(self.graph.blocks[self.body.lock_node])
        while block is not None and block.id in self.body.nodes:
            if block.id == self.body.unlock_node:
                return
            moved = self._hoist_from_block(block)
            if moved and not block.stmts:
                block = self._unique_succ(block)
            else:
                return

    def _hoist_from_block(self, block: BasicBlock) -> bool:
        """Move what we can from the head block; True if it emptied."""
        changed = True
        while changed:
            changed = False
            for stmt in list(block.stmts):
                if not self.conflicts.lock_independent(stmt, block):
                    continue
                if not self._hoist_safe(stmt, block):
                    continue
                block.stmts.remove(stmt)
                self._move_to_pre(stmt)
                changed = True
        return not block.stmts

    def _hoist_safe(self, stmt: IRStmt, block: BasicBlock) -> bool:
        """No flow dependence on, and no anti/output dependence with,
        the statements still before it in the block."""
        idx = _index_of(block.stmts, stmt)
        earlier = block.stmts[:idx]
        used = _used_vars(stmt)
        defined = _defined_vars(stmt)
        for other in earlier:
            if _defined_vars(other) & used:
                return False  # flow dependence (Definers within block)
            if (_used_vars(other) | _defined_vars(other)) & defined:
                return False  # anti/output dependence
        # Also: defs of the operands must come from outside the body
        # entirely (the head-block chain is the only body code that can
        # precede the statement, and `earlier` covered it).
        return True

    # -- sinking ---------------------------------------------------------------

    def sink(self) -> None:
        block = self._unique_pred(self.graph.blocks[self.body.unlock_node])
        while block is not None and block.id in self.body.nodes:
            moved = self._sink_from_block(block)
            if moved and not block.stmts:
                block = self._unique_pred(block)
            else:
                return

    def _sink_from_block(self, block: BasicBlock) -> bool:
        changed = True
        while changed:
            changed = False
            for stmt in reversed(list(block.stmts)):
                if not self.conflicts.lock_independent(stmt, block):
                    continue
                if not self._sink_safe(stmt, block):
                    continue
                block.stmts.remove(stmt)
                self._move_to_post(stmt)
                changed = True
        return not block.stmts

    def _sink_safe(self, stmt: IRStmt, block: BasicBlock) -> bool:
        """No use of the statement's value, no redefinition of its
        operands, and no redefinition of its target among the statements
        still after it in the block."""
        idx = _index_of(block.stmts, stmt)
        later = block.stmts[idx + 1 :]
        defined = _defined_vars(stmt)
        used = _used_vars(stmt)
        for other in later:
            if _used_vars(other) & defined:
                return False  # flow dependence (Users within block)
            if _defined_vars(other) & (defined | used):
                return False  # output/anti dependence
        return True

    # -- helpers ------------------------------------------------------------------

    def _unique_succ(self, block: BasicBlock) -> Optional[BasicBlock]:
        if len(block.succs) != 1:
            return None
        return self.graph.blocks[block.succs[0]]

    def _unique_pred(self, block: BasicBlock) -> Optional[BasicBlock]:
        if len(block.preds) != 1:
            return None
        pred = self.graph.blocks[block.preds[0]]
        if len(pred.succs) != 1:
            return None  # pred must exit straight into this block
        return pred

    # -- empty-body removal -----------------------------------------------------

    def remove_if_empty(self) -> bool:
        for block_id in self.body.nodes:
            block = self.graph.blocks[block_id]
            if block.id == self.body.unlock_node:
                continue
            if block.stmts or block.phis:
                return False
        remove_stmt(self.lock_stmt)
        remove_stmt(self.unlock_stmt)
        self.stats.bodies_emptied += 1
        self.stats.locks_removed += 2
        return True


class _RegionMotion:
    """Whole-region motion: the paper notes a statement inside a loop
    can only leave the mutex body if "the whole loop is lock
    independent".  This phase moves an ``if``/``while`` region that is
    structurally adjacent to the Lock (hoist) or Unlock (sink) when
    every statement inside it is lock independent.

    Caveat (shared with classic loop optimizations and the paper's
    model): motion assumes the region terminates — relocating a
    non-terminating loop across a lock boundary would change which
    locks a hung execution holds.
    """

    def __init__(self, graph: FlowGraph, conflicts: _Conflicts, stats: LICMStats) -> None:
        self.graph = graph
        self.conflicts = conflicts
        self.stats = stats

    def run(self, body: MutexBody) -> None:
        lock_stmt = self.graph.blocks[body.lock_node].stmts[0]
        unlock_stmt = self.graph.blocks[body.unlock_node].stmts[0]
        lock_body = lock_stmt.parent
        if not isinstance(lock_body, Body) or unlock_stmt.parent is not lock_body:
            return  # lock/unlock not structural siblings: stay put
        anchor_block = self.graph.blocks[body.lock_node]

        # A moved region swaps places with the lock or unlock it passes,
        # so both positions are tracked, not searched for.
        items = lock_body.items
        idx = lock_body.index(lock_stmt)
        uidx = lock_body.index(unlock_stmt)
        changed = True
        while changed:
            changed = False
            if idx + 1 < len(items):
                item = items[idx + 1]
                if item is not unlock_stmt and self._movable(item, anchor_block):
                    items[idx], items[idx + 1] = item, lock_stmt
                    idx += 1
                    self.stats.hoisted += 1
                    changed = True
                    continue
            if uidx > 0:
                item = items[uidx - 1]
                if item is not lock_stmt and self._movable(item, anchor_block):
                    items[uidx - 1], items[uidx] = unlock_stmt, item
                    uidx -= 1
                    self.stats.sunk += 1
                    changed = True

    def _movable(self, item, anchor_block) -> bool:
        from repro.ir.stmts import Phi

        if isinstance(item, Phi):
            # A φ is a runtime no-op; it may travel with its region as
            # long as its base variable has no concurrent access.
            return self.conflicts.accesses_independent(item, anchor_block)
        return self._movable_region(item, anchor_block)

    def _movable_region(self, item, anchor_block) -> bool:
        from repro.ir.structured import CobeginRegion, IfRegion, WhileRegion, _iter_body
        from repro.ir.stmts import Phi, Pi, SBranch, SSkip

        if not isinstance(item, (IfRegion, WhileRegion)):
            return False
        if _contains_cobegin(item):
            return False  # nested parallelism: stay conservative

        def stmts_of(region):
            if isinstance(region, IfRegion):
                yield region.branch
                yield from (s for s, _ in _iter_body(region.then_body, (), True))
                yield from (s for s, _ in _iter_body(region.else_body, (), True))
            else:
                yield from region.header_phis
                yield region.branch
                yield from (s for s, _ in _iter_body(region.body, (), True))

        for stmt in stmts_of(item):
            if isinstance(stmt, Pi):
                return False  # a π means a shared conflicting use
            if isinstance(stmt, Phi):
                # φs are runtime no-ops; they only pin the region when
                # they merge a concurrently-accessed variable.
                if not self.conflicts.accesses_independent(stmt, anchor_block):
                    return False
                continue
            if isinstance(stmt, (SBranch, SSkip)):
                if not self.conflicts.accesses_independent(stmt, anchor_block):
                    return False
                continue
            if not self.conflicts.lock_independent(stmt, anchor_block):
                return False
        return True


def _contains_cobegin(item) -> bool:
    from repro.ir.structured import Body, CobeginRegion, IfRegion, WhileRegion

    def walk(body: Body) -> bool:
        for child in body.items:
            if isinstance(child, CobeginRegion):
                return True
            if isinstance(child, IfRegion):
                if walk(child.then_body) or walk(child.else_body):
                    return True
            elif isinstance(child, WhileRegion):
                if walk(child.body):
                    return True
        return False

    from repro.ir.structured import IfRegion as _If, WhileRegion as _While

    if isinstance(item, _If):
        return walk(item.then_body) or walk(item.else_body)
    if isinstance(item, _While):
        return walk(item.body)
    return False


def _index_of(stmts: list[IRStmt], stmt: IRStmt) -> int:
    for i, existing in enumerate(stmts):
        if existing is stmt:
            return i
    raise ValueError("statement not in block")  # pragma: no cover


def lock_independent_code_motion(program: ProgramIR) -> LICMStats:
    """Run LICM on ``program`` in place; returns motion statistics."""
    graph = build_flow_graph(program)
    structures = identify_mutex_structures(graph)
    conflicts = _Conflicts(graph)
    stats = LICMStats()
    for _lock_name, structure in sorted(structures.items()):
        for body in structure.bodies:
            motion = _BodyMotion(graph, conflicts, body, stats)
            motion.hoist()
            motion.sink()
            # Whole-region motion (the paper's "unless the whole loop is
            # lock independent" case), then another statement pass for
            # anything the region move uncovered.
            _RegionMotion(graph, conflicts, stats).run(body)
            motion.remove_if_empty()
    record_work(
        "licm",
        bodies=sum(len(s) for s in structures.values()),
        independence_checks=conflicts.independence_checks,
        moved=stats.total_moved,
        locks_removed=stats.locks_removed,
    )
    return stats

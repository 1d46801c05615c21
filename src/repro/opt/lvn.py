"""Local value numbering / common-subexpression elimination on CSSAME.

The paper's Section 7 observes that "the CSSAME form facilitates the
translation of scalar optimizations to the parallel case, especially if
the sequential strategy is SSA based".  This pass demonstrates the
claim with classic value numbering:

* Two occurrences of the same expression *over the same SSA names* are
  guaranteed to compute the same value — even in a parallel program —
  because CSSA interposes a π term (a fresh name) wherever a concurrent
  definition may intervene.  Racy re-reads therefore get different
  names and never match; protected or thread-local values match and can
  be reused.  This is the same invariant that makes concurrent constant
  propagation's use-folding sound.
* Scope is one basic block at a time.  Since Lock/Unlock/barrier
  operations occupy their own PFG nodes, a table never crosses a
  synchronization point.
* Replacing an expression with a reference to an earlier definition
  ``t`` must survive conventional-SSA destruction (versions drop to the
  base variable), so the reuse is valid only while the base variable of
  ``t`` has not been redefined within the block.

The pass runs on the CSSAME form, in place, like the other passes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.ir.expr import EBin, ECall, EConst, EUn, EVar, IRExpr
from repro.ir.stmts import (
    IRStmt,
    Phi,
    Pi,
    SAssign,
    SBranch,
    SCallStmt,
    SPrint,
)
from repro.ir.structured import ProgramIR
from repro.obs.prof import record_work

__all__ = ["LVNStats", "local_value_numbering"]

_Key = tuple


class LVNStats:
    """Outcome of one value-numbering run."""

    def __init__(self) -> None:
        self.expressions_replaced = 0
        self.blocks_processed = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LVNStats(replaced={self.expressions_replaced}, "
            f"blocks={self.blocks_processed})"
        )


def _key_of(expr: IRExpr) -> Optional[_Key]:
    """Structural key over SSA names; ``None`` for unkeyable (calls)."""
    if isinstance(expr, EConst):
        return ("const", expr.value)
    if isinstance(expr, EVar):
        return ("var", expr.name, expr.version)
    if isinstance(expr, EUn):
        inner = _key_of(expr.operand)
        if inner is None:
            return None
        return ("un", expr.op, inner)
    if isinstance(expr, EBin):
        left = _key_of(expr.left)
        right = _key_of(expr.right)
        if left is None or right is None:
            return None
        if expr.op in ("+", "*", "==", "!=", "&&", "||"):
            # Commutative operators: canonicalize operand order.
            left, right = sorted((left, right))
        return ("bin", expr.op, left, right)
    if isinstance(expr, ECall):
        return None  # opaque, never reusable
    return None


class _BlockTable:
    """Available expressions for one block.

    A definition is recorded for reuse only when :meth:`can_reuse`
    holds for its base variable.
    """

    def __init__(self, stats: LVNStats, accesses: AccessRelation, block) -> None:
        self.stats = stats
        self.accesses = accesses
        self.block = block
        #: expression key → defining SAssign
        self.available: dict[_Key, SAssign] = {}

    def can_reuse(self, base: str) -> bool:
        """True when ``base`` has no concurrent definition: replacing a
        recomputation with a reference to ``t`` introduces a *new
        runtime read* of ``t``'s base variable, which is only
        behaviour-preserving when nothing can clobber it between the
        definition and the reuse."""
        return not self.accesses.parallel_defs(base, self.block.thread_path)

    def invalidate_base(self, base: str) -> None:
        self.available = {
            key: d for key, d in self.available.items() if d.target != base
        }

    def rewrite(self, expr: IRExpr, is_root: bool = False) -> IRExpr:
        """Bottom-up replacement of available subexpressions."""
        if isinstance(expr, (EConst, EVar)):
            return expr
        if isinstance(expr, ECall):
            args = [self.rewrite(a) for a in expr.args]
            if all(n is o for n, o in zip(args, expr.args)):
                return expr
            return ECall(expr.func, args)
        if isinstance(expr, EUn):
            operand = self.rewrite(expr.operand)
            rebuilt = expr if operand is expr.operand else EUn(expr.op, operand)
            return self._lookup(rebuilt)
        if isinstance(expr, EBin):
            left = self.rewrite(expr.left)
            right = self.rewrite(expr.right)
            rebuilt = (
                expr
                if left is expr.left and right is expr.right
                else EBin(expr.op, left, right)
            )
            return self._lookup(rebuilt)
        return expr

    def _lookup(self, expr: IRExpr) -> IRExpr:
        key = _key_of(expr)
        if key is None:
            return expr
        source = self.available.get(key)
        if source is None:
            return expr
        self.stats.expressions_replaced += 1
        return EVar(source.target, source.version, source)

    def record(self, stmt: SAssign) -> None:
        key = _key_of(stmt.value)
        if key is None or key[0] in ("const", "var"):
            return  # reusing literals/copies buys nothing and risks
            # copy-propagation across versions (unsound after
            # destruction)
        if not self.can_reuse(stmt.target):
            return
        self.available.setdefault(key, stmt)


def local_value_numbering(program: ProgramIR) -> LVNStats:
    """Run block-local value numbering on a CSSAME-form ``program``."""
    graph = build_flow_graph(program)
    stats = LVNStats()

    accesses = AccessRelation(graph, collect_access_sites(graph))
    for block in graph.blocks:
        if not block.stmts:
            continue
        stats.blocks_processed += 1
        table = _BlockTable(stats, accesses, block)
        for stmt in block.stmts:
            if isinstance(stmt, SAssign):
                stmt.value = table.rewrite(stmt.value, is_root=True)
                table.invalidate_base(stmt.target)
                table.record(stmt)
            elif isinstance(stmt, (SPrint, SCallStmt)):
                stmt.args = [table.rewrite(a) for a in stmt.args]
            elif isinstance(stmt, SBranch):
                stmt.cond = table.rewrite(stmt.cond)
            elif isinstance(stmt, (Phi, Pi)):
                target = stmt.def_name()
                if target is not None:
                    table.invalidate_base(target)
            # sync ops occupy their own nodes; nothing to do here
    record_work(
        "lvn",
        blocks_processed=stats.blocks_processed,
        replaced=stats.expressions_replaced,
    )
    return stats

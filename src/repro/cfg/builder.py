"""Structured IR → Parallel Flow Graph.

The builder walks the structured tree and emits parallel basic blocks:

* every ``lock``/``unlock``/``set``/``wait`` statement becomes its own
  node (paper Definition 1);
* ``cobegin``/``coend`` become dedicated COBEGIN/COEND nodes with one
  subgraph per child thread between them, and the COEND's predecessor
  list is ordered by thread index;
* branch blocks order their successors ``[true, false]``;
* join blocks (if-joins, loop headers, coend nodes) record a
  :class:`~repro.cfg.blocks.PhiAnchor` telling SSA construction where φ
  terms materialize in the structured tree.

The builder accepts programs in any form: φ/π statements already present
in the tree (a program that has been through SSA construction and some
transformations) are placed as ordinary statements, which is exactly what
the position-based analyses need on a rebuild.
"""

from __future__ import annotations

from repro.errors import CFGError
from repro.cfg.blocks import BasicBlock, NodeKind, PhiAnchor
from repro.cfg.graph import FlowGraph
from repro.ir.stmts import IRStmt, SBarrier, SLock, SSetEvent, SUnlock, SWaitEvent
from repro.ir.structured import (
    Body,
    CobeginRegion,
    IfRegion,
    ProgramIR,
    WhileRegion,
)
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer

__all__ = ["build_flow_graph"]

_SYNC_KINDS = {
    SLock: NodeKind.LOCK,
    SUnlock: NodeKind.UNLOCK,
    SSetEvent: NodeKind.SET,
    SWaitEvent: NodeKind.WAIT,
    SBarrier: NodeKind.BARRIER,
}


class _Builder:
    def __init__(self) -> None:
        self.graph = FlowGraph()

    def run(self, program: ProgramIR) -> FlowGraph:
        g = self.graph
        entry = g.new_block(NodeKind.ENTRY)
        g.entry_id = entry.id
        last = self._build_body(program.body, entry, ())
        exit_block = g.new_block(NodeKind.EXIT)
        g.exit_id = exit_block.id
        g.add_edge(last.id, exit_block.id)
        g.reindex_statements()
        g.validate()
        return g

    # ------------------------------------------------------------------

    def _ensure_block(self, cur: BasicBlock, thread_path: tuple) -> BasicBlock:
        """Return a BLOCK node statements can be appended to."""
        if cur.kind is NodeKind.BLOCK and not self._is_terminated(cur):
            return cur
        block = self.graph.new_block(NodeKind.BLOCK, thread_path)
        self.graph.add_edge(cur.id, block.id)
        return block

    @staticmethod
    def _is_terminated(block: BasicBlock) -> bool:
        from repro.ir.stmts import SBranch

        return bool(block.stmts) and isinstance(block.stmts[-1], SBranch)

    def _build_body(self, body: Body, cur: BasicBlock, thread_path: tuple) -> BasicBlock:
        for item in body.items:
            if isinstance(item, IRStmt):
                cur = self._build_stmt(item, cur, thread_path)
            elif isinstance(item, IfRegion):
                cur = self._build_if(item, cur, thread_path)
            elif isinstance(item, WhileRegion):
                cur = self._build_while(item, cur, thread_path)
            elif isinstance(item, CobeginRegion):
                cur = self._build_cobegin(item, cur, thread_path)
            else:  # pragma: no cover - defensive
                raise CFGError(f"unknown body item {item!r}")
        return cur

    def _build_stmt(self, stmt: IRStmt, cur: BasicBlock, thread_path: tuple) -> BasicBlock:
        sync_kind = _SYNC_KINDS.get(type(stmt))
        if sync_kind is not None:
            node = self.graph.new_block(sync_kind, thread_path)
            node.stmts.append(stmt)
            self.graph.add_edge(cur.id, node.id)
            return node
        block = self._ensure_block(cur, thread_path)
        block.stmts.append(stmt)
        return block

    def _build_if(self, region: IfRegion, cur: BasicBlock, thread_path: tuple) -> BasicBlock:
        g = self.graph
        branch_block = self._ensure_block(cur, thread_path)
        branch_block.stmts.append(region.branch)
        g.branch_blocks[region.branch.uid] = branch_block.id

        then_entry = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(branch_block.id, then_entry.id)  # succs[0] = true
        then_exit = self._build_body(region.then_body, then_entry, thread_path)

        else_entry = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(branch_block.id, else_entry.id)  # succs[1] = false
        else_exit = self._build_body(region.else_body, else_entry, thread_path)

        join = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(then_exit.id, join.id)
        g.add_edge(else_exit.id, join.id)
        if region.parent is not None:
            join.phi_anchor = PhiAnchor("after", region.parent, region)
        return join

    def _build_while(self, region: WhileRegion, cur: BasicBlock, thread_path: tuple) -> BasicBlock:
        g = self.graph
        header = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(cur.id, header.id)
        header.phi_anchor = PhiAnchor("header", None, region)
        # Pre-existing loop-header φ/π terms (rebuild of an SSA-form
        # program) become ordinary leading statements of the header.
        for stmt in region.header_phis:
            header.stmts.append(stmt)
        header.stmts.append(region.branch)
        g.branch_blocks[region.branch.uid] = header.id

        body_entry = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(header.id, body_entry.id)  # succs[0] = true
        body_exit = self._build_body(region.body, body_entry, thread_path)
        g.add_edge(body_exit.id, header.id)  # back edge

        after = g.new_block(NodeKind.BLOCK, thread_path)
        g.add_edge(header.id, after.id)  # succs[1] = false
        return after

    def _build_cobegin(
        self, region: CobeginRegion, cur: BasicBlock, thread_path: tuple
    ) -> BasicBlock:
        g = self.graph
        cobegin = g.new_block(NodeKind.COBEGIN, thread_path)
        g.add_edge(cur.id, cobegin.id)
        thread_exits = []
        for index, thread in enumerate(region.threads):
            child_path = thread_path + ((region.uid, index),)
            thread_entry = g.new_block(NodeKind.BLOCK, child_path)
            g.add_edge(cobegin.id, thread_entry.id)
            thread_exit = self._build_body(thread.body, thread_entry, child_path)
            thread_exits.append(thread_exit)
        # The COEND node is allocated after the thread subgraphs so that
        # SSA renaming (dominator-tree preorder, ordered by block id)
        # numbers thread definitions before the coend φ terms — matching
        # the paper's source-order version numbering.  Its preds are
        # added in thread order for φ-argument attribution.
        coend = g.new_block(NodeKind.COEND, thread_path)
        for thread_exit in thread_exits:
            g.add_edge(thread_exit.id, coend.id)
        if region.parent is not None:
            coend.phi_anchor = PhiAnchor("after", region.parent, region)
        g.cobegin_nodes[region.uid] = (cobegin.id, coend.id)
        return coend


def build_flow_graph(program: ProgramIR) -> FlowGraph:
    """Build a fresh PFG for ``program`` (control edges only; conflict,
    mutex and sync edges are added by :mod:`repro.cfg.conflicts`)."""
    graph = _Builder().run(program)
    if get_tracer().enabled:
        record_work(
            "pfg",
            blocks=len(graph.blocks),
            edges=sum(len(b.succs) for b in graph.blocks),
            statements=sum(len(b.stmts) for b in graph.blocks),
        )
    return graph

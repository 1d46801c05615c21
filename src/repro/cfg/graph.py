"""The Parallel Flow Graph container.

Holds the block table, the typed non-control edge sets (conflict, mutex,
directed sync) and a statement-location index used by position-sensitive
analyses (mutex-body exposure, LICM).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import CFGError
from repro.cfg.blocks import BasicBlock, NodeKind
from repro.ir.stmts import IRStmt

__all__ = ["ConflictEdge", "FlowGraph", "MutexEdge", "SyncEdge"]


class ConflictEdge:
    """A directed conflict edge between concurrent accesses (Def. 1).

    ``kind`` labels the memory operations at each end, as in the paper's
    figures: ``"DU"`` (def reaches use), ``"DD"`` (write-write) or
    ``"UD"`` (use before overwrite).
    """

    __slots__ = ("src_block", "dst_block", "var", "kind")

    def __init__(self, src_block: int, dst_block: int, var: str, kind: str) -> None:
        self.src_block = src_block
        self.dst_block = dst_block
        self.var = var
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConflictEdge(B{self.src_block}->B{self.dst_block}, {self.var}, {self.kind})"


class MutexEdge:
    """An undirected mutex synchronization edge between a Lock node and
    an Unlock node on the same lock variable in concurrent threads."""

    __slots__ = ("lock_block", "unlock_block", "lock_name")

    def __init__(self, lock_block: int, unlock_block: int, lock_name: str) -> None:
        self.lock_block = lock_block
        self.unlock_block = unlock_block
        self.lock_name = lock_name

    def __repr__(self) -> str:  # pragma: no cover
        return f"MutexEdge(B{self.lock_block}--B{self.unlock_block}, {self.lock_name})"


class SyncEdge:
    """A directed synchronization edge from ``set(e)`` to ``wait(e)``."""

    __slots__ = ("set_block", "wait_block", "event_name")

    def __init__(self, set_block: int, wait_block: int, event_name: str) -> None:
        self.set_block = set_block
        self.wait_block = wait_block
        self.event_name = event_name

    def __repr__(self) -> str:  # pragma: no cover
        return f"SyncEdge(B{self.set_block}->B{self.wait_block}, {self.event_name})"


class FlowGraph:
    """A PFG over shared statement objects.

    ``blocks`` is dense: ``blocks[i].id == i``.  Control flow lives in
    each block's ``preds``/``succs``; the other edge kinds live in the
    ``conflict_edges`` / ``mutex_edges`` / ``sync_edges`` lists, which
    may be computed on first read (:meth:`set_edge_inputs`).
    """

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.entry_id: int = -1
        self.exit_id: int = -1
        #: a :class:`~repro.cfg.conflicts.PFGEdgeInputs` the edge lists
        #: still ``None`` below are computed from on first read
        self.edge_inputs: Any = None
        self._conflict_edges: Optional[list[ConflictEdge]] = []
        self._mutex_edges: Optional[list[MutexEdge]] = []
        self._sync_edges: Optional[list[SyncEdge]] = []
        #: stmt uid → (block_id, index within block.stmts); φ terms are
        #: indexed with negative positions (-len(phis)..-1) so that any
        #: φ orders before any ordinary statement of the same block.
        self.stmt_locations: dict[int, tuple[int, int]] = {}
        #: branch stmt uid → block id (block whose terminator it is)
        self.branch_blocks: dict[int, int] = {}
        #: cobegin region uid → (cobegin node id, coend node id)
        self.cobegin_nodes: dict[int, tuple[int, int]] = {}

    # -- construction ----------------------------------------------------

    def new_block(self, kind: NodeKind, thread_path: tuple = ()) -> BasicBlock:
        block = BasicBlock(len(self.blocks), kind, thread_path)
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].succs.append(dst)
        self.blocks[dst].preds.append(src)

    def set_edge_inputs(self, inputs: Any) -> None:
        """Replace the three edge lists by ``inputs.conflict_edges()``,
        ``inputs.mutex_edges()`` and ``inputs.sync_edges()``, each
        computed on its first read."""
        self.edge_inputs = inputs
        self._conflict_edges = self._mutex_edges = self._sync_edges = None

    # Racing first reads (cached forms are shared between threads) each
    # build an equal list and publish it; no reader sees a partial one.

    @property
    def conflict_edges(self) -> list[ConflictEdge]:
        edges = self._conflict_edges
        if edges is None:
            edges = self._conflict_edges = self.edge_inputs.conflict_edges()
        return edges

    @conflict_edges.setter
    def conflict_edges(self, edges: list[ConflictEdge]) -> None:
        self._conflict_edges = edges

    @property
    def mutex_edges(self) -> list[MutexEdge]:
        edges = self._mutex_edges
        if edges is None:
            edges = self._mutex_edges = self.edge_inputs.mutex_edges()
        return edges

    @mutex_edges.setter
    def mutex_edges(self, edges: list[MutexEdge]) -> None:
        self._mutex_edges = edges

    @property
    def sync_edges(self) -> list[SyncEdge]:
        edges = self._sync_edges
        if edges is None:
            edges = self._sync_edges = self.edge_inputs.sync_edges()
        return edges

    @sync_edges.setter
    def sync_edges(self, edges: list[SyncEdge]) -> None:
        self._sync_edges = edges

    # -- queries -----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_id]

    @property
    def exit(self) -> BasicBlock:
        return self.blocks[self.exit_id]

    def block_of(self, stmt: IRStmt) -> BasicBlock:
        loc = self.stmt_locations.get(stmt.uid)
        if loc is None:
            raise CFGError(f"statement not in graph: {stmt!r}")
        return self.blocks[loc[0]]

    def location_of(self, stmt: IRStmt) -> tuple[int, int]:
        loc = self.stmt_locations.get(stmt.uid)
        if loc is None:
            raise CFGError(f"statement not in graph: {stmt!r}")
        return loc

    def contains_stmt(self, stmt: IRStmt) -> bool:
        return stmt.uid in self.stmt_locations

    def nodes_of_kind(self, kind: NodeKind) -> list[BasicBlock]:
        return [b for b in self.blocks if b.kind is kind]

    # -- maintenance -------------------------------------------------------

    def reindex_statements(self) -> None:
        """Rebuild ``stmt_locations`` after statements were inserted or
        removed from blocks."""
        self.stmt_locations.clear()
        for block in self.blocks:
            nphis = len(block.phis)
            for i, phi in enumerate(block.phis):
                self.stmt_locations[phi.uid] = (block.id, i - nphis)
            for i, stmt in enumerate(block.stmts):
                self.stmt_locations[stmt.uid] = (block.id, i)

    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder from the entry (control edges)."""
        seen = [False] * len(self.blocks)
        order: list[int] = []
        # Iterative DFS with an explicit stack (graphs can be deep).
        stack: list[tuple[int, int]] = [(self.entry_id, 0)]
        seen[self.entry_id] = True
        while stack:
            node, child_idx = stack[-1]
            succs = self.blocks[node].succs
            if child_idx < len(succs):
                stack[-1] = (node, child_idx + 1)
                succ = succs[child_idx]
                if not seen[succ]:
                    seen[succ] = True
                    stack.append((succ, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def validate(self) -> None:
        """Internal consistency checks; raises :class:`CFGError`."""
        for block in self.blocks:
            for succ in block.succs:
                if block.id not in self.blocks[succ].preds:
                    raise CFGError(f"edge B{block.id}->B{succ} missing back-link")
            for pred in block.preds:
                if block.id not in self.blocks[pred].succs:
                    raise CFGError(f"edge B{pred}->B{block.id} missing forward-link")
        if self.entry_id < 0 or self.exit_id < 0:
            raise CFGError("graph missing entry or exit")
        if self.entry.preds:
            raise CFGError("entry block has predecessors")
        if self.exit.succs:
            raise CFGError("exit block has successors")

"""Intra-mutex-body path analyses for Theorems 1 and 2.

Both theorems reason about def-free control paths *inside one mutex
body*:

* **Theorem 2** needs to know whether a use of ``v`` is *upward-exposed*
  from its body ``B_L(n, x)`` — is there a control path from the Lock
  node ``n`` to the use along which ``v`` is never defined?  If not,
  every execution of the body overwrites ``v`` before the use, so no
  definition from another body of the same structure can reach it.
* **Theorem 1** needs to know whether a definition of ``v`` *reaches the
  exit node* ``x`` of its body — is there a control path from the
  definition to the Unlock along which ``v`` is not redefined?  If not,
  the definition is always killed inside the body and can never be seen
  by any other body of the same structure.

Only *real* definitions (plain assignments) generate or kill values; φ
and π terms are bookkeeping.  Positions are statement-precise within
blocks.

:class:`MutexBodyOracle` is the one place that applies the two
theorems: A.3 asks it about π conflict arguments, CSCC about the
definitions concurrent with a φ it wants to store.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.graph import FlowGraph
from repro.errors import AnalysisError
from repro.ir.stmts import IRStmt, SAssign
from repro.mutex.structures import MutexBody, MutexStructure
from repro.obs.events import REASON_DOES_NOT_REACH_EXIT, REASON_NOT_UPWARD_EXPOSED

__all__ = ["BodyDataflow", "MutexBodyOracle"]


class BodyDataflow:
    """Cached def-free reachability queries for one mutex body."""

    def __init__(self, graph: FlowGraph, body: MutexBody) -> None:
        self.graph = graph
        self.body = body
        self._defs_in_block: dict[int, dict[str, list[int]]] = {}
        self._entry_reach: dict[str, frozenset[int]] = {}
        self._exit_reach: dict[str, frozenset[int]] = {}

    # -- per-block def positions ------------------------------------------

    def _block_defs(self, block_id: int) -> dict[str, list[int]]:
        cached = self._defs_in_block.get(block_id)
        if cached is not None:
            return cached
        positions: dict[str, list[int]] = {}
        for index, stmt in enumerate(self.graph.blocks[block_id].stmts):
            if isinstance(stmt, SAssign):
                positions.setdefault(stmt.target, []).append(index)
        self._defs_in_block[block_id] = positions
        return positions

    def _block_has_def(self, block_id: int, var: str) -> bool:
        return bool(self._block_defs(block_id).get(var))

    # -- Theorem 2: upward exposure ----------------------------------------

    def _entry_reachable(self, var: str) -> frozenset[int]:
        """Blocks of the body whose *start* is reachable from the Lock
        node along a path with no definition of ``var``."""
        cached = self._entry_reach.get(var)
        if cached is not None:
            return cached
        nodes = self.body.nodes
        reach: set[int] = set()
        worklist = [
            succ
            for succ in self.graph.blocks[self.body.lock_node].succs
            if succ in nodes
        ]
        for block_id in worklist:
            reach.add(block_id)
        while worklist:
            block_id = worklist.pop()
            if self._block_has_def(block_id, var):
                continue  # the path dies inside this block
            for succ in self.graph.blocks[block_id].succs:
                if succ in nodes and succ not in reach:
                    reach.add(succ)
                    worklist.append(succ)
        result = frozenset(reach)
        self._entry_reach[var] = result
        return result

    def upward_exposed(self, var: str, block_id: int, index: int) -> bool:
        """Is a use of ``var`` at (block, statement index) upward-exposed
        from this mutex body?"""
        defs_before = [i for i in self._block_defs(block_id).get(var, []) if i < index]
        if defs_before:
            return False
        return block_id in self._entry_reachable(var)

    # -- Theorem 1: reaching the body exit ----------------------------------

    def _exit_reachable(self, var: str) -> frozenset[int]:
        """Blocks of the body whose *end* can reach the Unlock node along
        a path with no definition of ``var``."""
        cached = self._exit_reach.get(var)
        if cached is not None:
            return cached
        nodes = self.body.nodes
        exit_node = self.body.unlock_node
        reach: set[int] = set()
        worklist: list[int] = []
        for pred in self.graph.blocks[exit_node].preds:
            if pred in nodes or pred == self.body.lock_node:
                if pred not in reach:
                    reach.add(pred)
                    worklist.append(pred)
        while worklist:
            block_id = worklist.pop()
            # Walking backwards: a predecessor P can reach the exit from
            # its end through `block_id` only if `block_id` itself is
            # def-free (the path traverses all of it).
            if block_id != exit_node and self._block_has_def(block_id, var):
                continue
            for pred in self.graph.blocks[block_id].preds:
                if (pred in nodes or pred == self.body.lock_node) and pred not in reach:
                    reach.add(pred)
                    worklist.append(pred)
        result = frozenset(reach)
        self._exit_reach[var] = result
        return result

    def reaches_exit(self, var: str, block_id: int, index: int) -> bool:
        """Does the definition of ``var`` at (block, statement index)
        reach this body's Unlock node?"""
        defs_after = [i for i in self._block_defs(block_id).get(var, []) if i > index]
        if defs_after:
            return False
        return block_id in self._exit_reachable(var)


class MutexBodyOracle:
    """Theorems 1 and 2 for the mutex bodies of one graph.

    Caches one :class:`BodyDataflow` per body and Theorem 1's verdict
    per (body, definition).  Both caches are keyed by object identity,
    so an oracle belongs to one graph and its structures.
    """

    def __init__(self, graph: FlowGraph) -> None:
        self.graph = graph
        self._dataflow: dict[int, BodyDataflow] = {}
        #: (body identity, def uid) → is the def killed inside that body?
        self._killed: dict[tuple[int, int], bool] = {}

    def dataflow(self, body: MutexBody) -> BodyDataflow:
        cached = self._dataflow.get(id(body))
        if cached is None:
            cached = self._dataflow[id(body)] = BodyDataflow(self.graph, body)
        return cached

    def exposed(self, body: MutexBody, var: str, use: IRStmt) -> bool:
        """Is a use of ``var`` at ``use``'s position upward-exposed from
        ``body``?"""
        block_id, index = self.graph.location_of(use)
        return self.dataflow(body).upward_exposed(var, block_id, index)

    def removal(
        self,
        definition: IRStmt,
        structure: MutexStructure,
        body: MutexBody,
        exposed: bool,
    ) -> Optional[str]:
        """Which theorem stops ``definition`` from reaching a use in
        ``body`` of ``structure`` (exposed from it or not), as a
        ``REASON_*`` code; ``None`` when neither does.

        The theorems apply only to a definition in *another* body of
        the same structure: an unsynchronized one, or one in ``body``
        itself (possible when the body spans a whole cobegin), is never
        removed.
        """
        if not isinstance(definition, SAssign):
            raise AnalysisError(f"not a real definition: {definition!r}")
        def_block, def_index = self.graph.location_of(definition)
        other = structure.body_of_block(def_block)
        if other is None or other is body:
            return None
        if not exposed:
            return REASON_NOT_UPWARD_EXPOSED
        # Theorem 1 depends only on the definition and the body that
        # holds it (a def under nested locks has one body per structure).
        key = (id(other), definition.uid)
        killed = self._killed.get(key)
        if killed is None:
            killed = self._killed[key] = not self.dataflow(other).reaches_exit(
                definition.target, def_block, def_index
            )
        return REASON_DOES_NOT_REACH_EXIT if killed else None

"""Event-ordering π pruning (the Lee et al. substrate, Section 3.1).

The paper inherits event (``set``/``wait``) synchronization handling
from Lee, Midkiff and Padua and contributes the mutex side; this module
implements the sound core of the event side so the PFG's directed sync
edges actually feed the analysis:

    A π conflict argument ``d`` can be removed when the protected use
    **must complete before ``d`` can execute** — then no execution lets
    the definition reach the use.

"Must happen before" is derived from the guaranteed-ordering structure:

* within a thread of control, a block that dominates another precedes
  it on every execution;
* a ``wait(e)`` node cannot proceed until some ``set(e)`` has executed;
  so if *every* ``set(e)`` in the program is preceded (recursively, by
  this same relation) by block ``A``, then ``A`` precedes everything
  dominated by the ``wait``.

The relation is evaluated with memoized recursion over the (finite)
event set; it is conservative — ``False`` is always safe.

Contrast with the mutex theorems: those prune arguments that *reach*
but are *killed*; this prunes arguments that can never execute early
enough at all.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.blocks import NodeKind
from repro.cfg.dominance import DominatorTree, compute_dominators
from repro.cfg.graph import FlowGraph
from repro.cssame.rewrite import delete_reduced_pis
from repro.ir.stmts import ConflictSet, Pi, SAssign
from repro.ir.structured import ProgramIR, iter_statements
from repro.obs.prof import record_work

__all__ = ["EventOrdering", "OrderingStats", "prune_pi_terms_by_ordering"]


class OrderingStats:
    """What event-ordering pruning accomplished."""

    __slots__ = ("args_removed", "pis_deleted")

    def __init__(self) -> None:
        self.args_removed = 0
        self.pis_deleted = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OrderingStats(args_removed={self.args_removed}, "
            f"pis_deleted={self.pis_deleted})"
        )


class EventOrdering:
    """Must-happen-before queries over PFG blocks."""

    def __init__(self, graph: FlowGraph, domtree: Optional[DominatorTree] = None) -> None:
        self.graph = graph
        self._domtree = domtree
        #: event name → list of SET block ids
        self.set_nodes: dict[str, list[int]] = {}
        #: event name → list of WAIT block ids
        self.wait_nodes: dict[str, list[int]] = {}
        for block in graph.nodes_of_kind(NodeKind.SET):
            self.set_nodes.setdefault(block.stmts[0].event_name, []).append(block.id)
        for block in graph.nodes_of_kind(NodeKind.WAIT):
            self.wait_nodes.setdefault(block.stmts[0].event_name, []).append(block.id)
        #: one-shot barrier name → list of its block ids.  A barrier
        #: contributes ordering only when every occurrence executes at
        #: most once (no occurrence sits in a CFG cycle) and each
        #: participating thread mentions it exactly once — then "a
        #: precedes some arrival" implies "a precedes every release".
        self.barrier_nodes: dict[str, list[int]] = {}
        candidates: dict[str, list[int]] = {}
        for block in graph.nodes_of_kind(NodeKind.BARRIER):
            candidates.setdefault(
                block.stmts[0].barrier_name, []
            ).append(block.id)
        for name, blocks in candidates.items():
            threads = [graph.blocks[b].thread_path for b in blocks]
            if len(set(threads)) != len(threads):
                continue  # a thread mentions it twice: phases ambiguous
            if any(self._in_cycle(b) for b in blocks):
                continue  # cyclic barrier: arrivals repeat
            self.barrier_nodes[name] = blocks
        self._memo: dict[tuple[int, int], bool] = {}

    @property
    def domtree(self) -> DominatorTree:
        """The graph's dominator tree, computed by the first query that
        needs it: a graph with no event or barrier node often has none."""
        if self._domtree is None:
            self._domtree = compute_dominators(self.graph)
        return self._domtree

    def _in_cycle(self, block_id: int) -> bool:
        """Can this block reach itself along control edges?"""
        stack = list(self.graph.blocks[block_id].succs)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == block_id:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.graph.blocks[node].succs)
        return False

    def must_precede(self, a: int, b: int) -> bool:
        """True when block ``a`` always finishes before block ``b``
        starts, on every execution that runs both."""
        return self._query(a, b, frozenset())

    def _query(self, a: int, b: int, active: frozenset) -> bool:
        if a == b:
            return False
        key = (a, b)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in active:
            return False  # break cycles conservatively
        active = active | {key}

        result = False
        if self.domtree.dominates(a, b):
            # Every control path to b passes through (and completes) a.
            result = True
        if not result:
            # a ≤ set(e) for every set of e, and some wait(e) ≤ b.
            for event, sets in self.set_nodes.items():
                waits = self.wait_nodes.get(event, [])
                if not waits or not sets:
                    continue
                if not all(
                    s != a and self._query(a, s, active) for s in sets
                ):
                    continue
                if any(self._wait_guards(w, b) for w in waits):
                    result = True
                    break
        if not result:
            # One-shot barrier: a precedes some arrival → a precedes
            # every release; b strictly after some barrier node.
            for _name, nodes in self.barrier_nodes.items():
                before_arrival = any(
                    n == a or self._query(a, n, active) for n in nodes
                )
                if not before_arrival:
                    continue
                if any(
                    n != b and self.domtree.strictly_dominates(n, b)
                    for n in nodes
                ):
                    result = True
                    break
        # Memoize only completed (non-cycle-guarded) queries from the
        # top level; nested guarded queries stay unmemoized for safety.
        if not (active - {key}):
            self._memo[key] = result
        return result

    def _wait_guards(self, wait_block: int, b: int) -> bool:
        return wait_block == b or self.domtree.dominates(wait_block, b)


def prune_pi_terms_by_ordering(
    program: ProgramIR,
    graph: FlowGraph,
    domtree: Optional[DominatorTree] = None,
) -> OrderingStats:
    """Remove π conflict arguments whose definition must execute after
    the protected use; delete π terms reduced to their control argument.

    The verdict depends only on the use's block and the definition, so
    each (conflict set, use block) is pruned once."""
    stats = OrderingStats()
    ordering = EventOrdering(graph, domtree)
    if not ordering.set_nodes or not ordering.wait_nodes:
        return stats  # no events, nothing to do

    pis = [s for s, _ in iter_statements(program) if isinstance(s, Pi)]
    args_examined = 0
    #: (conflict set, use block) → (kept set, arguments removed)
    pruned: dict[tuple, tuple[ConflictSet, int]] = {}
    for pi in pis:
        if not graph.contains_stmt(pi):
            continue
        use_block = graph.block_of(pi).id
        key = (pi.conflict_set, use_block)
        found = pruned.get(key)
        if found is None:
            kept = []
            for arg in pi.conflict_set:
                args_examined += 1
                site = arg.def_site
                if isinstance(site, SAssign) and graph.contains_stmt(site):
                    def_block = graph.block_of(site).id
                    if ordering.must_precede(use_block, def_block):
                        continue
                kept.append(arg)
            found = pruned[key] = (
                ConflictSet.of(kept), len(pi.conflict_set) - len(kept)
            )
        pi.conflict_set, removed = found
        stats.args_removed += removed

    stats.pis_deleted = len(delete_reduced_pis(program, graph, pis))
    record_work(
        "ordering",
        pi_terms=len(pis),
        args_examined=args_examined,
        args_removed=stats.args_removed,
        pis_deleted=stats.pis_deleted,
    )
    return stats

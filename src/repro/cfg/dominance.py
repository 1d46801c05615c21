"""Dominators, post-dominators and dominance frontiers.

Uses the Cooper–Harvey–Kennedy iterative algorithm over reverse
postorder.  Per paper Definition 2, dominance is computed on *control
paths only*, which is exactly what the block ``preds``/``succs`` lists
contain (conflict/mutex/sync edges live in separate lists).

Post-dominance is the same computation on the reversed control graph,
rooted at the exit node.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import CFGError
from repro.cfg.graph import FlowGraph

__all__ = ["DominatorTree", "compute_dominators", "compute_postdominators"]


class DominatorTree:
    """An (immediate-)dominator tree with O(1) dominance queries.

    ``idom[b]`` is the immediate dominator of block ``b`` (``None`` for
    the root and for unreachable blocks).  Queries use Euler-interval
    numbering over the tree.
    """

    def __init__(self, root: int, idom: list[Optional[int]]) -> None:
        self.root = root
        self.idom = idom
        n = len(idom)
        self.children: list[list[int]] = [[] for _ in range(n)]
        for block, parent in enumerate(idom):
            if parent is not None and block != root:
                self.children[parent].append(block)
        self._tin = [-1] * n
        self._tout = [-1] * n
        self._number()

    def _number(self) -> None:
        clock = 0
        stack: list[tuple[int, int]] = [(self.root, 0)]
        self._tin[self.root] = clock
        clock += 1
        while stack:
            node, child_idx = stack[-1]
            kids = self.children[node]
            if child_idx < len(kids):
                stack[-1] = (node, child_idx + 1)
                child = kids[child_idx]
                self._tin[child] = clock
                clock += 1
                stack.append((child, 0))
            else:
                self._tout[node] = clock
                clock += 1
                stack.pop()

    def is_reachable(self, block: int) -> bool:
        return self._tin[block] >= 0

    def dominates(self, a: int, b: int) -> bool:
        """True when every path from the root to ``b`` passes through
        ``a`` (reflexive: a block dominates itself)."""
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def interval(self, block: int) -> tuple[int, int]:
        """Euler interval ``[tin, tout)`` of a reachable ``block``:
        ``block`` dominates exactly the reachable blocks whose ``tin``
        falls inside it."""
        return self._tin[block], self._tout[block]

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def dominated_by(self, a: int) -> list[int]:
        """All blocks dominated by ``a`` (including ``a``), preorder."""
        out: list[int] = []
        stack = [a]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.children[node])
        return out


def _iterative_idoms(
    n_blocks: int,
    root: int,
    succs: Callable[[int], Sequence[int]],
    preds: Callable[[int], Sequence[int]],
) -> list[Optional[int]]:
    """Cooper–Harvey–Kennedy: intersect along RPO until fixpoint."""
    # Reverse postorder from the root following `succs`.
    seen = [False] * n_blocks
    post: list[int] = []
    stack: list[tuple[int, int]] = [(root, 0)]
    seen[root] = True
    while stack:
        node, child_idx = stack[-1]
        nexts = succs(node)
        if child_idx < len(nexts):
            stack[-1] = (node, child_idx + 1)
            succ = nexts[child_idx]
            if not seen[succ]:
                seen[succ] = True
                stack.append((succ, 0))
        else:
            post.append(node)
            stack.pop()
    rpo = list(reversed(post))
    rpo_index = {b: i for i, b in enumerate(rpo)}

    idom: list[Optional[int]] = [None] * n_blocks
    idom[root] = root

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]  # type: ignore[assignment]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block == root:
                continue
            new_idom: Optional[int] = None
            for pred in preds(block):
                if pred in rpo_index and idom[pred] is not None:
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(new_idom, pred)
            if new_idom is not None and idom[block] != new_idom:
                idom[block] = new_idom
                changed = True

    idom[root] = None  # conventional: the root has no idom
    return idom


def compute_dominators(graph: FlowGraph) -> DominatorTree:
    """Dominator tree rooted at the entry node."""
    n = len(graph.blocks)
    idom = _iterative_idoms(
        n,
        graph.entry_id,
        lambda b: graph.blocks[b].succs,
        lambda b: graph.blocks[b].preds,
    )
    return DominatorTree(graph.entry_id, idom)


def compute_postdominators(graph: FlowGraph) -> DominatorTree:
    """Post-dominator tree rooted at the exit node (reversed edges)."""
    n = len(graph.blocks)
    idom = _iterative_idoms(
        n,
        graph.exit_id,
        lambda b: graph.blocks[b].preds,
        lambda b: graph.blocks[b].succs,
    )
    return DominatorTree(graph.exit_id, idom)


def dominance_frontiers(graph: FlowGraph, domtree: DominatorTree) -> list[set[int]]:
    """Cooper's dominance-frontier computation (forward direction)."""
    n = len(graph.blocks)
    frontiers: list[set[int]] = [set() for _ in range(n)]
    for block in graph.blocks:
        if len(block.preds) < 2:
            continue
        target_idom = domtree.idom[block.id]
        if target_idom is None and block.id != domtree.root:
            continue  # unreachable join
        for pred in block.preds:
            runner = pred
            while runner != target_idom and runner is not None:
                if not domtree.is_reachable(runner):
                    break
                frontiers[runner].add(block.id)
                runner = domtree.idom[runner]
    return frontiers


def postdominance_frontiers(graph: FlowGraph, pdomtree: DominatorTree) -> list[set[int]]:
    """Dominance frontiers on the reversed graph.

    ``b ∈ pdf(a)`` means ``a`` is control dependent on ``b`` in the
    classical Ferrante–Ottenstein–Warren sense.
    """
    n = len(graph.blocks)
    frontiers: list[set[int]] = [set() for _ in range(n)]
    for block in graph.blocks:
        preds_rev = block.succs  # predecessors in the reversed graph
        if len(preds_rev) < 2:
            continue
        target_idom = pdomtree.idom[block.id]
        for pred in preds_rev:
            runner = pred
            while runner != target_idom and runner is not None:
                if not pdomtree.is_reachable(runner):
                    break
                frontiers[runner].add(block.id)
                runner = pdomtree.idom[runner]
    return frontiers


def verify_mutex_pair(
    domtree: DominatorTree, pdomtree: DominatorTree, n: int, x: int
) -> bool:
    """Condition 2 of paper Definition 3: ``n DOM x`` and ``x PDOM n``."""
    return domtree.dominates(n, x) and pdomtree.dominates(x, n)


def check_single_exit(graph: FlowGraph) -> None:
    """Sanity check used by tests: every block must reach the exit."""
    pdom = compute_postdominators(graph)
    for block in graph.blocks:
        if not pdom.is_reachable(block.id):
            raise CFGError(f"block B{block.id} cannot reach the exit node")

"""Algorithm A.1 — identification of mutex structures.

Phases, exactly as in the paper:

1. collect the ``Lock(L)`` / ``Unlock(L)`` nodes per lock variable;
2. build dominator and post-dominator trees;
3. pair every ``(n, x)`` with ``n DOM x`` and ``x PDOM n`` as a
   candidate mutex body;
4. discard candidates that contain another ``Lock(L)``/``Unlock(L)``
   node (condition 3 of Definition 3).

Ill-formed synchronization (unmatched locks, etc.) simply produces fewer
mutex bodies, which keeps every downstream analysis conservative — this
is the paper's deliberate deviation from Masticola's strict intervals.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from repro.cfg.blocks import NodeKind
from repro.cfg.dominance import (
    DominatorTree,
    compute_dominators,
    compute_postdominators,
)
from repro.cfg.graph import FlowGraph
from repro.mutex.structures import MutexBody, MutexStructure
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer

__all__ = ["identify_mutex_structures"]


class _Grid:
    """Blocks as points ``(tin in the dominator tree, tin in the
    post-dominator tree)``.

    ``n`` dominates exactly the blocks whose first coordinate falls in
    n's Euler interval ``[tin, tout)``, and ``x`` post-dominates exactly
    those whose second coordinate falls in x's, so the blocks between a
    Lock and an Unlock form a rectangle.  A merge-sort tree over the
    first coordinate (each node keeps its points sorted by the second)
    reports a rectangle's blocks with O(log² B) bisections plus one step
    per block reported, instead of scanning either tree's subtree.
    Blocks unreachable in either tree are left out: they dominate and
    are dominated by nothing.
    """

    __slots__ = ("domtree", "pdomtree", "_tins", "_by_tin", "_size", "_keys", "_blocks")

    def __init__(
        self, domtree: DominatorTree, pdomtree: DominatorTree, blocks: Iterable[int]
    ) -> None:
        points = sorted(
            (domtree.interval(b)[0], pdomtree.interval(b)[0], b)
            for b in blocks
            if domtree.is_reachable(b) and pdomtree.is_reachable(b)
        )
        self.domtree = domtree
        self.pdomtree = pdomtree
        self._tins = [tin for tin, _, _ in points]
        self._by_tin = [b for _, _, b in points]
        size = 1
        while size < len(points):
            size *= 2
        self._size = size
        columns: list[list[tuple[int, int]]] = [[] for _ in range(2 * size)]
        for i, (_, ptin, b) in enumerate(points):
            columns[size + i] = [(ptin, b)]
        for node in range(size - 1, 0, -1):
            columns[node] = sorted(columns[2 * node] + columns[2 * node + 1])
        self._keys = [[ptin for ptin, _ in col] for col in columns]
        self._blocks = [[b for _, b in col] for col in columns]

    def _dom_range(self, n: int) -> tuple[int, int]:
        """Positions, in first-coordinate order, of the blocks n dominates."""
        if not self.domtree.is_reachable(n):
            return 0, 0
        tin, tout = self.domtree.interval(n)
        lo = bisect_left(self._tins, tin)
        return lo, bisect_left(self._tins, tout, lo)

    def dominated_by(self, n: int) -> list[int]:
        """The blocks ``n`` dominates (``n`` too if it is a point)."""
        lo, hi = self._dom_range(n)
        return self._by_tin[lo:hi]

    def between(self, n: int, x: int) -> Iterator[int]:
        """The blocks ``m`` with ``n DOM m`` and ``x PDOM m``, lazily
        and in no particular order."""
        if not self.pdomtree.is_reachable(x):
            return
        lo, hi = self._dom_range(n)
        ptin, ptout = self.pdomtree.interval(x)
        lo += self._size
        hi += self._size
        while lo < hi:
            if lo & 1:
                yield from self._column(lo, ptin, ptout)
                lo += 1
            if hi & 1:
                hi -= 1
                yield from self._column(hi, ptin, ptout)
            lo //= 2
            hi //= 2

    def _column(self, node: int, ptin: int, ptout: int) -> list[int]:
        keys = self._keys[node]
        first = bisect_left(keys, ptin)
        return self._blocks[node][first : bisect_left(keys, ptout, first)]


def identify_mutex_structures(
    graph: FlowGraph,
    domtree: Optional[DominatorTree] = None,
    pdomtree: Optional[DominatorTree] = None,
) -> dict[str, MutexStructure]:
    """Run Algorithm A.1; returns lock name → :class:`MutexStructure`.

    Bodies come out per lock variable in ``(Lock, Unlock)`` order of
    the nodes' block ids, the order LICM visits them in.
    """
    if domtree is None:
        domtree = compute_dominators(graph)
    if pdomtree is None:
        pdomtree = compute_postdominators(graph)

    # Phase 1: lock/unlock nodes per lock variable.
    plock: dict[str, list[int]] = {}
    punlock: dict[str, list[int]] = {}
    for block in graph.nodes_of_kind(NodeKind.LOCK):
        plock.setdefault(block.stmts[0].lock_name, []).append(block.id)
    for block in graph.nodes_of_kind(NodeKind.UNLOCK):
        punlock.setdefault(block.stmts[0].lock_name, []).append(block.id)

    blocks: Optional[_Grid] = None  # built for the first body found
    structures: dict[str, MutexStructure] = {}
    lock_vars = sorted(set(plock) | set(punlock))
    pairs_examined = 0
    for lock_name in lock_vars:
        structure = MutexStructure(lock_name)
        locks = plock.get(lock_name, [])
        unlocks = punlock.get(lock_name, [])

        ops = _Grid(domtree, pdomtree, locks + unlocks)

        # Phase 2: candidate pairing (Definition 3, conditions 1–2).
        # Only the Unlocks in n's dominator interval can pair with n.
        # Those that post-dominate n lie on n's post-dominator chain,
        # and the nearest of them lies inside the rectangle of every
        # farther one, so condition 3 rejects all but the nearest: it
        # is n's one candidate (the lemma beside A.1 in ALGORITHMS.md).
        unlocks_set = set(unlocks)
        candidates: list[tuple[int, int]] = []
        for n in locks:
            nearest, nearest_tin = None, -1
            for x in ops.dominated_by(n):
                if x not in unlocks_set:
                    continue
                pairs_examined += 1
                if pdomtree.dominates(x, n):
                    tin = pdomtree.interval(x)[0]
                    if tin > nearest_tin:
                        nearest, nearest_tin = x, tin
            if nearest is not None:
                candidates.append((n, nearest))

        # Phase 3: drop candidates containing other Lock/Unlock(L) ops
        # (Definition 3, condition 3 / A.1 lines 19–26).  The rectangle
        # query stops at the first op other than n and x.
        for n, x in candidates:
            if any(m != n and m != x for m in ops.between(n, x)):
                continue
            # SDOM⁻¹(n) ∩ PDOM⁻¹(x): strictly dominated by the Lock node
            # and post-dominated by the Unlock node.
            if blocks is None:
                blocks = _Grid(domtree, pdomtree, range(len(graph.blocks)))
            nodes = frozenset(blocks.between(n, x)) - {n}
            structure.add(MutexBody(lock_name, n, x, nodes))
        structures[lock_name] = structure
    if get_tracer().enabled:
        record_work(
            "identify-mutex",
            lock_vars=len(lock_vars),
            pairs_examined=pairs_examined,
            bodies=sum(len(s) for s in structures.values()),
            body_nodes=sum(
                len(b.nodes) for s in structures.values() for b in s.bodies
            ),
        )
    return structures

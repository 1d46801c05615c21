"""Reference Algorithm A.1: the pairing that ran a rectangle query for
every (Lock, Unlock) candidate.

``repro.mutex.identify`` now queries only the nearest candidate of each
Lock (the lemma beside A.1 in docs/ALGORITHMS.md); this is the function
it replaced, kept verbatim so ``test_identify_oracle`` can compare the
bodies, and their order, with it.  Only tests import it.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.blocks import NodeKind
from repro.cfg.dominance import (
    DominatorTree,
    compute_dominators,
    compute_postdominators,
)
from repro.cfg.graph import FlowGraph
from repro.mutex.identify import _Grid
from repro.mutex.structures import MutexBody, MutexStructure


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
        # Only the Unlocks in n's dominator interval can pair with n;
        # visiting them in list order keeps the candidate order.
        unlock_rank = {x: i for i, x in enumerate(unlocks)}
        candidates: list[tuple[int, int]] = []
        for n in locks:
            dominated = [x for x in ops.dominated_by(n) if x in unlock_rank]
            for x in sorted(dominated, key=unlock_rank.__getitem__):
                pairs_examined += 1
                if pdomtree.dominates(x, n):
                    candidates.append((n, x))

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
    from repro.obs.trace import get_tracer

    if get_tracer().enabled:
        from repro.obs.prof import record_work

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

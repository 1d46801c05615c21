"""Eager reference builders for the PFG's conflict, mutex and sync edges.

These are the scans CSSA construction ran before the edge lists were
derived, on first read, from :class:`repro.cfg.conflicts.PFGEdgeInputs`.
Each fills the matching ``graph.*_edges`` list and returns it.  Only
tests import them: they are what the lazy lists are compared against.
"""

from typing import Optional

from repro.cfg.blocks import NodeKind
from repro.cfg.concurrency import may_happen_in_parallel, thread_paths_diverge
from repro.cfg.conflicts import AccessSite, collect_access_sites, is_memory_access
from repro.cfg.graph import ConflictEdge, FlowGraph, MutexEdge, SyncEdge


def _blocks_concurrent_with(
    graph: FlowGraph, path: tuple, block_ids: list[int]
) -> list[int]:
    return [
        b for b in block_ids if thread_paths_diverge(path, graph.blocks[b].thread_path)
    ]


def add_conflict_edges(
    graph: FlowGraph,
    sites: Optional[dict[str, list[AccessSite]]] = None,
) -> list[ConflictEdge]:
    """Populate ``graph.conflict_edges`` (block granularity, deduped)."""
    if sites is None:
        sites = collect_access_sites(graph)
    edges: list[ConflictEdge] = []
    for var, all_accesses in sites.items():
        # Edges are block-granular, so collapse sites to block-id sets
        # first — the def × access product is then bounded by the block
        # count, not the (much larger) site count.
        def_blocks: set[int] = set()
        use_blocks: set[int] = set()
        for s in all_accesses:
            if not is_memory_access(s):
                continue
            if s.is_real_def:
                def_blocks.add(s.block_id)
            elif not s.is_def:
                use_blocks.add(s.block_id)
        if not def_blocks:
            continue
        # MHP depends only on thread paths: find each def path's
        # concurrent blocks once, then emit its defs' edges from them.
        uses_sorted = sorted(use_blocks)
        defs_sorted = sorted(def_blocks)
        concurrent: dict[tuple, tuple[list[int], list[int]]] = {}
        for d_id in defs_sorted:
            path = graph.blocks[d_id].thread_path
            if path not in concurrent:
                concurrent[path] = (
                    _blocks_concurrent_with(graph, path, uses_sorted),
                    _blocks_concurrent_with(graph, path, defs_sorted),
                )
            conc_uses, conc_defs = concurrent[path]
            for u_id in conc_uses:
                edges.append(ConflictEdge(d_id, u_id, var, "DU"))
            for d2_id in conc_defs:
                if d2_id > d_id:  # emit write-write pairs once
                    edges.append(ConflictEdge(d_id, d2_id, var, "DD"))
    graph.conflict_edges = edges
    return graph.conflict_edges


def add_mutex_edges(graph: FlowGraph) -> list[MutexEdge]:
    """Undirected mutex edges between concurrent Lock/Unlock nodes that
    operate on the same lock variable (paper Definition 1)."""
    locks = graph.nodes_of_kind(NodeKind.LOCK)
    unlocks = graph.nodes_of_kind(NodeKind.UNLOCK)
    edges: list[MutexEdge] = []
    for ln in locks:
        lock_name = ln.stmts[0].lock_name  # type: ignore[attr-defined]
        for un in unlocks:
            if un.stmts[0].lock_name != lock_name:  # type: ignore[attr-defined]
                continue
            if may_happen_in_parallel(ln, un):
                edges.append(MutexEdge(ln.id, un.id, lock_name))
    graph.mutex_edges = edges
    return edges


def add_sync_edges(graph: FlowGraph) -> list[SyncEdge]:
    """Directed sync edges from every ``set(e)`` to every concurrent
    ``wait(e)``."""
    sets = graph.nodes_of_kind(NodeKind.SET)
    waits = graph.nodes_of_kind(NodeKind.WAIT)
    edges: list[SyncEdge] = []
    for sn in sets:
        event = sn.stmts[0].event_name  # type: ignore[attr-defined]
        for wn in waits:
            if wn.stmts[0].event_name != event:  # type: ignore[attr-defined]
                continue
            if may_happen_in_parallel(sn, wn):
                edges.append(SyncEdge(sn.id, wn.id, event))
    graph.sync_edges = edges
    return edges

"""Reference Section 6 race detection: the site-pair loop.

Pairs every write site of a shared variable with every memory access
site of it, asks ``may_happen_in_parallel``, the locksets and the
event ordering per site pair, and dedups to (variable, block pair,
kind).  :func:`repro.mutex.races.detect_races` filters the block-level
MHP access relation instead and must return the same reports, in the
same order, orientation and locksets.
"""

from __future__ import annotations

from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import collect_access_sites, is_memory_access
from repro.cfg.graph import FlowGraph
from repro.cssame.ordering import EventOrdering
from repro.mutex.lockset import compute_locksets
from repro.mutex.races import RaceReport
from repro.mutex.structures import MutexStructure


def oracle_races(
    graph: FlowGraph, structures: dict[str, MutexStructure]
) -> list[RaceReport]:
    locksets = compute_locksets(graph, structures)
    sites = collect_access_sites(graph)

    ordering = EventOrdering(graph)
    if not (ordering.set_nodes or ordering.barrier_nodes):
        ordering = None

    reports: list[RaceReport] = []
    seen: set[tuple[str, int, int, str]] = set()
    # A variable with no MHP write pair is not shared and yields nothing.
    for var in sorted(sites):
        accesses = [s for s in sites.get(var, []) if is_memory_access(s)]
        writes = [s for s in accesses if s.is_real_def]
        for w in writes:
            w_block = graph.blocks[w.block_id]
            for other in accesses:
                if other.stmt is w.stmt and other.is_def:
                    continue
                if not may_happen_in_parallel(w_block, graph.blocks[other.block_id]):
                    continue
                if locksets[w.block_id] & locksets[other.block_id]:
                    continue  # serialized by a common lock
                if ordering is not None and (
                    ordering.must_precede(w.block_id, other.block_id)
                    or ordering.must_precede(other.block_id, w.block_id)
                ):
                    continue  # serialized by events/barriers
                kind = "write-write" if other.is_def else "write-read"
                a, b = sorted((w.block_id, other.block_id))
                key = (var, a, b, kind)
                if key in seen:
                    continue
                seen.add(key)
                reports.append(
                    RaceReport(
                        var,
                        w.block_id,
                        other.block_id,
                        kind,
                        locksets[w.block_id],
                        locksets[other.block_id],
                    )
                )
    return reports

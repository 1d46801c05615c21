"""Lockset-style data race detection (paper Section 6).

"If modifications to a variable are not always protected by the same
lock, the compiler will warn the user about a potential data race."

A race is a PFG conflict edge (Definition 1: two may-happen-in-parallel
accesses to a shared variable, at least one a write) whose endpoints
hold disjoint locksets and are not ordered by event or barrier
synchronization.  :func:`detect_races` therefore filters the pairs of
the block-level MHP access relation
(:class:`repro.cfg.conflicts.AccessRelation`); it makes no MHP query of
its own.
"""

from __future__ import annotations

from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.cfg.graph import FlowGraph
from repro.mutex.lockset import compute_locksets
from repro.mutex.structures import MutexStructure

__all__ = ["RaceReport", "detect_races"]


class RaceReport:
    """A potential data race on ``var`` between two concurrent accesses."""

    __slots__ = ("var", "block_a", "block_b", "kind", "locks_a", "locks_b")

    def __init__(
        self,
        var: str,
        block_a: int,
        block_b: int,
        kind: str,
        locks_a: frozenset[str],
        locks_b: frozenset[str],
    ) -> None:
        self.var = var
        self.block_a = block_a
        self.block_b = block_b
        #: "write-write" or "write-read"
        self.kind = kind
        self.locks_a = locks_a
        self.locks_b = locks_b

    def message(self) -> str:
        return (
            f"potential {self.kind} race on '{self.var}': "
            f"B{self.block_a} holds {_render(self.locks_a)} while "
            f"B{self.block_b} holds {_render(self.locks_b)} (no common lock)"
        )

    def key(self) -> tuple:
        """Stable identity (variable, ordered blocks, kind) — what the
        dynamic audit joins dynamic findings against."""
        a, b = sorted((self.block_a, self.block_b))
        return (self.var, a, b, self.kind)

    def as_dict(self) -> dict:
        """JSON-serializable form (``repro audit --json``)."""
        return {
            "var": self.var,
            "block_a": self.block_a,
            "block_b": self.block_b,
            "kind": self.kind,
            "locks_a": sorted(self.locks_a),
            "locks_b": sorted(self.locks_b),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"RaceReport({self.message()})"


def _render(locks: frozenset[str]) -> str:
    """A lockset as a set literal, sorted so the text does not depend
    on the hash seed."""
    return "{" + ", ".join(repr(lock) for lock in sorted(locks)) + "}"


def detect_races(
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
) -> list[RaceReport]:
    """Report every MHP conflicting access pair with disjoint locksets.

    Works on plain or CSSA-form graphs: SSA merge terms are ignored
    (see :func:`repro.cfg.conflicts.is_memory_access`).  Pairs
    serialized by event or one-shot barrier synchronization (the
    must-happen-before relation of
    :class:`repro.cssame.ordering.EventOrdering`) are not reported.

    Reports come per variable in name order, then per write block in
    block order, then per concurrent access in site order: the order of
    a scan over (write site, access site) pairs.  The relation is built
    from the graph's current sites: π placement moves reads ahead of
    their statements, so the relation captured with the CSSA form
    would order the reports differently.
    """
    from repro.cssame.ordering import EventOrdering

    locksets = compute_locksets(graph, structures)
    accesses = AccessRelation(graph, collect_access_sites(graph))
    ordering = EventOrdering(graph)
    ordered = ordering.must_precede if ordering.set_nodes or ordering.barrier_nodes else None

    reports: list[RaceReport] = []
    seen: set[tuple] = set()
    for var in sorted(accesses.shared()):
        for w, concurrent in accesses.pairs(var):
            held = locksets[w]
            for b, is_def in concurrent:
                if not held.isdisjoint(locksets[b]):
                    continue  # serialized by a common lock
                if ordered is not None and (ordered(w, b) or ordered(b, w)):
                    continue  # serialized by events/barriers
                kind = "write-write" if is_def else "write-read"
                report = RaceReport(var, w, b, kind, held, locksets[b])
                key = report.key()
                if key not in seen:
                    seen.add(key)
                    reports.append(report)
    return reports

"""Lockset-style data race detection (paper Section 6).

"If modifications to a variable are not always protected by the same
lock, the compiler will warn the user about a potential data race."

A race is a PFG conflict edge (Definition 1: two may-happen-in-parallel
accesses to a shared variable, at least one a write) whose endpoints
hold disjoint locksets and are not ordered by event or barrier
synchronization.  :func:`detect_race_classes` therefore filters the
pairs of the block-level MHP access relation
(:class:`repro.cfg.conflicts.AccessRelation`); it makes no MHP query of
its own.

The races form a factored set, as π conflict arguments do: a
:class:`RaceClass` holds every race on one variable of one kind between
a write holding one lockset and an access holding another, with its
block pairs as flat ints.  That is the grain of the paper's warning,
and of the wire's race frames.  :meth:`RaceClasses.expand` gives the
per-pair :class:`RaceReport` list (:func:`detect_races`) on demand.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.cfg.graph import FlowGraph
from repro.mutex.lockset import compute_locksets
from repro.mutex.structures import MutexStructure

__all__ = [
    "SAMPLE_PAIRS",
    "RaceClass",
    "RaceClasses",
    "RaceReport",
    "detect_race_classes",
    "detect_races",
]

#: block pairs a race class names in its frame (its first ones)
SAMPLE_PAIRS = 3


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


class RaceClass:
    """Every potential race on ``var`` of one ``kind`` between a write
    holding ``locks_a`` and an access holding ``locks_b``.

    ``blocks`` holds the class's block pairs flat (writer, other,
    writer, other, ...), in expansion order and orientation.
    """

    __slots__ = ("var", "kind", "locks_a", "locks_b", "blocks")

    def __init__(
        self, var: str, kind: str, locks_a: frozenset[str], locks_b: frozenset[str]
    ) -> None:
        self.var = var
        #: "write-write" or "write-read"
        self.kind = kind
        self.locks_a = locks_a
        self.locks_b = locks_b
        self.blocks = array("i")

    @property
    def pairs(self) -> int:
        """How many (deduplicated) block pairs race in this class."""
        return len(self.blocks) // 2

    def sample(self) -> list[list[int]]:
        """The first :data:`SAMPLE_PAIRS` block pairs, as ``[a, b]``."""
        blocks = self.blocks[: 2 * SAMPLE_PAIRS]
        return [[blocks[i], blocks[i + 1]] for i in range(0, len(blocks), 2)]

    def message(self) -> str:
        """The race line of ``repro diagnose``, ``repro batch`` and the
        wire's race frames."""
        n = self.pairs
        a, b = self.blocks[0], self.blocks[1]
        return (
            f"potential {self.kind} race on '{self.var}' in {n} block "
            f"pair{'s' if n != 1 else ''} (first B{a} and B{b}): the write "
            f"holds {_render(self.locks_a)} while the other access holds "
            f"{_render(self.locks_b)} (no common lock)"
        )

    def as_dict(self) -> dict:
        """The ``race`` object of a wire race frame."""
        return {
            "var": self.var,
            "kind": self.kind,
            "locks_a": sorted(self.locks_a),
            "locks_b": sorted(self.locks_b),
            "pairs": self.pairs,
            "sample": self.sample(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"RaceClass({self.message()})"


class RaceClasses:
    """The Section 6 races of a program, factored into
    :class:`RaceClass` objects in order of first occurrence.

    ``order`` gives, per race in expansion order, the index of its
    class: what :meth:`expand` needs to interleave the classes back
    into the per-pair list.
    """

    __slots__ = ("classes", "order")

    def __init__(self) -> None:
        self.classes: list[RaceClass] = []
        self.order = array("i")

    def __iter__(self) -> Iterator[RaceClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def pairs(self) -> int:
        """The expanded race count: ``len(self.expand())``."""
        return len(self.order)

    def expand(self) -> list[RaceReport]:
        """One :class:`RaceReport` per race, in :func:`detect_races`
        order."""
        classes = self.classes
        cursors = [iter(c.blocks) for c in classes]
        reports = []
        for index in self.order:
            c = classes[index]
            blocks = cursors[index]
            reports.append(
                RaceReport(c.var, next(blocks), next(blocks), c.kind, c.locks_a, c.locks_b)
            )
        return reports


def detect_race_classes(
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
) -> RaceClasses:
    """Every MHP conflicting access pair with disjoint locksets, by
    (variable, kind, writer lockset, other lockset) class.

    Works on plain or CSSA-form graphs: SSA merge terms are ignored
    (see :func:`repro.cfg.conflicts.is_memory_access`).  Pairs
    serialized by event or one-shot barrier synchronization (the
    must-happen-before relation of
    :class:`repro.cssame.ordering.EventOrdering`) are not reported.

    Races come per variable in name order, then per write block in
    block order, then per concurrent access in site order: the order of
    a scan over (write site, access site) pairs.  A pair of blocks is
    reported once per kind, from the side scanned first.  The relation
    is built from the graph's current sites: π placement moves reads
    ahead of their statements, so the relation captured with the CSSA
    form would order the races differently.

    Lock disjointness is decided once per pair of distinct locksets;
    event ordering, where the program has any, per block pair.
    """
    from repro.cssame.ordering import EventOrdering

    locksets = compute_locksets(graph, structures)
    accesses = AccessRelation(graph, collect_access_sites(graph))
    ordering = EventOrdering(graph)
    ordered = ordering.must_precede if ordering.set_nodes or ordering.barrier_nodes else None

    interned: dict[frozenset[str], int] = {}
    lock_ids = [interned.setdefault(locks, len(interned)) for locks in locksets]
    distinct = list(interned)
    n = len(distinct)
    #: lockset pair (writer * n + other) → no common lock
    disjoint: dict[int, bool] = {}

    races = RaceClasses()
    classes = races.classes
    order = races.order
    for var in sorted(accesses.shared()):
        writers = set(accesses.writes[var])
        readers = {
            b
            for concurrent in accesses.concurrent[var].values()
            for b, is_def in concurrent
            if not is_def
        }
        #: (lockset pair, kind) → index of its class in ``classes``
        found: dict[int, int] = {}
        for w, concurrent in accesses.pairs(var):
            row = lock_ids[w] * n
            w_reads = w in readers
            for b, is_def in concurrent:
                # Scanned from b's side already: a write-write pair, or a
                # write-read pair where b writes and w reads.
                if b < w and (is_def or (w_reads and b in writers)):
                    continue
                pair = row + lock_ids[b]
                free = disjoint.get(pair)
                if free is None:
                    free = disjoint[pair] = distinct[pair // n].isdisjoint(
                        distinct[pair % n]
                    )
                if not free:
                    continue  # serialized by a common lock
                if ordered is not None and (ordered(w, b) or ordered(b, w)):
                    continue  # serialized by events/barriers
                key = 2 * pair + is_def
                index = found.get(key)
                if index is None:
                    index = found[key] = len(classes)
                    kind = "write-write" if is_def else "write-read"
                    classes.append(
                        RaceClass(var, kind, distinct[pair // n], distinct[pair % n])
                    )
                blocks = classes[index].blocks
                blocks.append(w)
                blocks.append(b)
                order.append(index)
    return races


def detect_races(
    graph: FlowGraph,
    structures: dict[str, MutexStructure],
) -> list[RaceReport]:
    """One :class:`RaceReport` per race of :func:`detect_race_classes`,
    in its order: ``detect_race_classes(graph, structures).expand()``."""
    return detect_race_classes(graph, structures).expand()

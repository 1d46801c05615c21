"""Shared-variable detection and the non-control PFG edge sets.

*Access sites* are statement-position-precise records of every variable
definition and use in the graph.  From them we derive:

* the **MHP access relation** (:class:`AccessRelation`), Definition 1's
  one answer to "which memory accesses of ``v`` may happen in parallel
  with this node": the sites π placement, CSCC, LVN and LICM ask for,
  and at block granularity the set of **shared variables** (accessed by
  two MHP sites, at least one a write), the **conflict edges** (def→use
  ``DU`` and write-write ``DD``) between concurrent blocks, as drawn in
  the paper's Figure 2, and the pairs Section 6 race detection filters;
* **mutex edges** between ``Lock``/``Unlock`` nodes of the same lock in
  concurrent threads;
* **directed sync edges** from ``set(e)`` to ``wait(e)``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional

from repro.cfg.blocks import NodeKind
from repro.cfg.concurrency import thread_paths_diverge
from repro.cfg.graph import ConflictEdge, FlowGraph, MutexEdge, SyncEdge
from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Phi, Pi, SAssign

__all__ = [
    "AccessRelation",
    "AccessSite",
    "PFGEdgeInputs",
    "collect_access_sites",
    "is_memory_access",
    "shared_variables",
]


def is_memory_access(site: "AccessSite") -> bool:
    """True when the site is a *runtime* memory operation.

    φ terms and π conflict arguments are SSA bookkeeping: they read and
    write nothing when the program runs (:func:`collect_access_sites`
    makes no site for a conflict argument at all).  A π's control
    argument stands for the original (rewritten) read, in the same
    block.  Filtering matters for precision: no phantom unprotected
    reads at join blocks.
    """
    stmt = site.stmt
    if isinstance(stmt, Phi):
        return False
    if isinstance(stmt, Pi):
        if site.is_def:
            return False  # π temporaries are thread-local
        return site.evar is stmt.control
    return True


class AccessSite:
    """One definition or use of a variable at a precise position.

    ``index`` is the statement's position within its block; φ terms have
    negative indices so they order before ordinary statements.
    ``is_real_def`` distinguishes genuine assignments from φ/π defs —
    π conflict arguments and the theorems of Section 4 only consider
    real definitions.
    """

    __slots__ = ("var", "block_id", "index", "stmt", "is_def", "is_real_def", "evar")

    def __init__(
        self,
        var: str,
        block_id: int,
        index: int,
        stmt: IRStmt,
        is_def: bool,
        is_real_def: bool,
        evar: Optional[EVar],
    ) -> None:
        self.var = var
        self.block_id = block_id
        self.index = index
        self.stmt = stmt
        self.is_def = is_def
        self.is_real_def = is_real_def
        self.evar = evar

    def __repr__(self) -> str:  # pragma: no cover
        role = "def" if self.is_def else "use"
        return f"AccessSite({self.var}, B{self.block_id}@{self.index}, {role})"


def collect_access_sites(graph: FlowGraph) -> dict[str, list[AccessSite]]:
    """Every access site in the graph, grouped by base variable name.

    π conflict arguments get no site: they are SSA bookkeeping shared
    between πs, not reads.
    """
    sites: dict[str, list[AccessSite]] = {}

    def add(site: AccessSite) -> None:
        sites.setdefault(site.var, []).append(site)

    for block in graph.blocks:
        nphis = len(block.phis)
        for i, phi in enumerate(block.phis):
            index = i - nphis
            add(AccessSite(phi.target, block.id, index, phi, True, False, None))
            for arg in phi.args:
                add(AccessSite(arg.var.name, block.id, index, phi, False, False, arg.var))
        for i, stmt in enumerate(block.stmts):
            target = stmt.def_name()
            if target is not None:
                is_real = isinstance(stmt, SAssign)
                add(AccessSite(target, block.id, i, stmt, True, is_real, None))
            # A π's conflict arguments are no memory access (see
            # is_memory_access): only its control argument is a site.
            uses = (stmt.control,) if isinstance(stmt, Pi) else stmt.uses()
            for var in uses:
                add(AccessSite(var.name, block.id, i, stmt, False, False, var))
    return sites


class AccessRelation:
    """Definition 1's may-happen-in-parallel access relation: the one
    place that decides which memory accesses (see
    :func:`is_memory_access`) may conflict.

    * :meth:`parallel` gives the memory-access sites of a variable in
      the blocks that may happen in parallel with a thread path, in
      site order (block id, then position); :meth:`parallel_defs` the
      definitions among them, which are all real (``SAssign``) ones.
      MHP depends only on thread paths and a graph has a handful of
      them, so each answer is found once per (variable, path), in a
      list shared by every caller: read it, do not modify it.
    * ``writes[var]``: the ids of the blocks writing ``var``,
      ascending, for each variable written somewhere;
    * ``concurrent[var][path]``: for the thread path of each write
      block, the first write and the first read of ``var`` in each
      block in parallel with it, as ``(block id, is write)`` in site
      order: the block-level view of ``parallel(var, path)``.

    Shared variables, the PFG conflict edges and the Section 6 races
    (:func:`repro.mutex.races.detect_race_classes`) read the block-level
    lists; π placement, CSCC, LVN and LICM read the sites.  The block
    lists are built up front and hold only ids, flags and thread paths:
    they pickle, and later edits to the program do not change them.
    The sites and their memo are left out of the pickled state and
    :meth:`drop_sites` forgets them, after which the relation answers
    only the block-level queries.
    """

    #: the per-site state: left out of pickles, dropped by drop_sites
    _SITE_STATE = ("sites", "_memo", "_masks")

    def __init__(self, graph: FlowGraph, sites: dict[str, list[AccessSite]]) -> None:
        paths = self.paths = [block.thread_path for block in graph.blocks]
        self.sites = {
            var: [s for s in var_sites if is_memory_access(s)]
            for var, var_sites in sites.items()
        }
        self._memo: dict[tuple[str, tuple], tuple[list[AccessSite], list[AccessSite]]] = {}
        #: thread path → per block, whether it may happen in parallel
        self._masks: dict[tuple, list[bool]] = {}
        self.writes: dict[str, list[int]] = {}
        self.concurrent: dict[str, dict[tuple, list[tuple[int, bool]]]] = {}
        for var, var_sites in self.sites.items():
            # The first of each (block, role), in site order.
            accesses = list(dict.fromkeys((s.block_id, s.is_def) for s in var_sites))
            writes = [b for b, is_def in accesses if is_def]
            if not writes:
                continue
            concurrent: dict[tuple, list[tuple[int, bool]]] = {}
            for w in writes:
                path = paths[w]
                if path not in concurrent:
                    parallel = {site.block_id for site in self.parallel(var, path)}
                    concurrent[path] = [a for a in accesses if a[0] in parallel]
            self.writes[var] = writes
            self.concurrent[var] = concurrent

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._SITE_STATE}

    def drop_sites(self) -> None:
        """Keep only the block-level lists, as an unpickled relation
        does: a relation kept with a graph needs no more, and the sites
        would hold every statement they name alive."""
        self.__dict__ = self.__getstate__()

    def _parallel(self, var: str, path: tuple) -> tuple[list[AccessSite], list[AccessSite]]:
        key = (var, path)
        found = self._memo.get(key)
        if found is None:
            mask = self._masks.get(path)
            if mask is None:
                mask = self._masks[path] = [
                    thread_paths_diverge(path, other) for other in self.paths
                ]
            sites = [site for site in self.sites.get(var, ()) if mask[site.block_id]]
            found = self._memo[key] = (sites, [site for site in sites if site.is_def])
        return found

    def parallel(self, var: str, path: tuple) -> list[AccessSite]:
        """The memory-access sites of ``var`` in blocks that may happen
        in parallel with thread path ``path``, in site order."""
        return self._parallel(var, path)[0]

    def parallel_defs(self, var: str, path: tuple) -> list[AccessSite]:
        """The definitions among ``parallel(var, path)``."""
        return self._parallel(var, path)[1]

    def pairs(self, var: str) -> Iterator[tuple[int, list[tuple[int, bool]]]]:
        """``(write block, the accesses concurrent with it)`` for each
        block writing ``var``, ascending."""
        concurrent = self.concurrent[var]
        for w in self.writes[var]:
            yield w, concurrent[self.paths[w]]

    def shared(self) -> set[str]:
        """Variables with two MHP accesses, at least one of them a write."""
        return {var for var, conc in self.concurrent.items() if any(conc.values())}

    def _edges(self) -> Iterator[tuple[int, int, str, str]]:
        for var in self.writes:
            for d, accesses in self.pairs(var):
                for b, is_def in accesses:
                    if not is_def:
                        yield d, b, var, "DU"
                for b, is_def in accesses:
                    if is_def and b > d:  # write-write pairs once
                        yield d, b, var, "DD"

    def conflict_edges(self) -> list[ConflictEdge]:
        return [ConflictEdge(*edge) for edge in self._edges()]

    def count_conflict_edges(self) -> int:
        """``len(self.conflict_edges())`` without building the edges, for
        the traced ``cssa`` record: building them only when tracing would
        charge the ``cssa`` span for work untraced runs never do.

        Each write block ``d`` has a DU edge per read concurrent with it
        and a DD edge per concurrent write block ``b > d``; the writes
        of a ``concurrent`` list are in ascending block order."""
        total = 0
        for var, writes in self.writes.items():
            concurrent = self.concurrent[var]
            #: thread path → (reads, ascending write blocks) in parallel
            counts: dict[tuple, tuple[int, list[int]]] = {}
            for d in writes:
                path = self.paths[d]
                found = counts.get(path)
                if found is None:
                    accesses = concurrent[path]
                    defs = [b for b, is_def in accesses if is_def]
                    found = counts[path] = (len(accesses) - len(defs), defs)
                reads, defs = found
                total += reads + len(defs) - bisect_right(defs, d)
        return total


def shared_variables(
    graph: FlowGraph,
    sites: Optional[dict[str, list[AccessSite]]] = None,
) -> set[str]:
    """Variables with two MHP accesses, at least one of them a write."""
    if sites is None:
        sites = collect_access_sites(graph)
    return AccessRelation(graph, sites).shared()


class PFGEdgeInputs(AccessRelation):
    """What the PFG's conflict, mutex and sync edge lists derive from,
    captured when the CSSA form is built: the access relation and
    ``(block id, name, thread path)`` of every lock, unlock, set and
    wait node.

    The lists derive from the block-level relation and the node tuples,
    which hold no statement or access site: later edits to the program
    do not change them, and they pickle with the graph.  π placement
    reads its conflict arguments from the same relation; the graph
    keeps it after :meth:`~AccessRelation.drop_sites`.
    """

    def __init__(self, graph: FlowGraph, sites: dict[str, list[AccessSite]]) -> None:
        super().__init__(graph, sites)

        def nodes(kind: NodeKind, attr: str) -> list[tuple[int, str, tuple]]:
            return [
                (block.id, getattr(block.stmts[0], attr), block.thread_path)
                for block in graph.nodes_of_kind(kind)
            ]

        self.locks = nodes(NodeKind.LOCK, "lock_name")
        self.unlocks = nodes(NodeKind.UNLOCK, "lock_name")
        self.sets = nodes(NodeKind.SET, "event_name")
        self.waits = nodes(NodeKind.WAIT, "event_name")

    def mutex_edges(self) -> list[MutexEdge]:
        return _paired_edges(self.locks, self.unlocks, MutexEdge)

    def sync_edges(self) -> list[SyncEdge]:
        return _paired_edges(self.sets, self.waits, SyncEdge)


def _paired_edges(sources: list[tuple], targets: list[tuple], edge: type) -> list:
    return [
        edge(src, dst, name)
        for src, name, path in sources
        for dst, other, other_path in targets
        if other == name and thread_paths_diverge(path, other_path)
    ]

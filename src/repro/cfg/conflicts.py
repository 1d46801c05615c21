"""Shared-variable detection and the non-control PFG edge sets.

*Access sites* are statement-position-precise records of every variable
definition and use in the graph.  From them we derive:

* the block-level **MHP access relation** (:class:`AccessRelation`),
  which alone gives the set of **shared variables** (accessed by two
  MHP sites, at least one a write), the **conflict edges** (def→use
  ``DU`` and write-write ``DD``) between concurrent blocks, as drawn in
  the paper's Figure 2, and the pairs Section 6 race detection filters;
* **mutex edges** between ``Lock``/``Unlock`` nodes of the same lock in
  concurrent threads;
* **directed sync edges** from ``set(e)`` to ``wait(e)``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cfg.blocks import BasicBlock, NodeKind
from repro.cfg.concurrency import may_happen_in_parallel, thread_paths_diverge
from repro.cfg.graph import ConflictEdge, FlowGraph, MutexEdge, SyncEdge
from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Phi, Pi, SAssign

__all__ = [
    "AccessRelation",
    "AccessSite",
    "ConcurrentSites",
    "PFGEdgeInputs",
    "add_conflict_edges",
    "add_mutex_edges",
    "add_sync_edges",
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


class ConcurrentSites:
    """The access sites of a variable that may happen in parallel with
    a block.

    MHP depends on nothing but the two blocks' ``thread_path``s, and a
    graph has only a handful of distinct paths, so each answer is
    computed once per (variable, thread path) and shared by every block
    on that path.  Sites come back in ``sites`` order, which
    :func:`collect_access_sites` makes (block id, position) order, in a
    list shared by every caller asking the same question: read it, do
    not modify it.
    """

    __slots__ = ("graph", "sites", "_memo")

    def __init__(
        self, graph: FlowGraph, sites: dict[str, list[AccessSite]]
    ) -> None:
        self.graph = graph
        self.sites = sites
        self._memo: dict[tuple[str, tuple, bool], list[AccessSite]] = {}

    def of(
        self, var: str, block: BasicBlock, real_defs: bool = False
    ) -> list[AccessSite]:
        """Sites of ``var`` concurrent with ``block`` (only the real
        definitions with ``real_defs``)."""
        path = block.thread_path
        key = (var, path, real_defs)
        found = self._memo.get(key)
        if found is None:
            blocks = self.graph.blocks
            found = [
                site
                for site in self.sites.get(var, ())
                if (site.is_real_def or not real_defs)
                and thread_paths_diverge(path, blocks[site.block_id].thread_path)
            ]
            self._memo[key] = found
        return found


class AccessRelation:
    """Definition 1's may-happen-in-parallel access relation, per
    variable and at block granularity: the one place that decides which
    memory accesses (see :func:`is_memory_access`) may conflict.

    For each variable written somewhere:

    * ``writes[var]``: the ids of the blocks writing it, ascending;
    * ``concurrent[var][path]``: for the thread path of each write
      block, the first write and the first read of ``var`` in each
      block in parallel with it, as ``(block id, is write)`` in site
      order (block id, then position).

    MHP depends only on thread paths, so each concurrent list is found
    once per (variable, path) and shared by the write blocks on that
    path.  The relation holds only block ids, flags and thread paths:
    it pickles with the graph, and later edits to the program do not
    change it.  Shared variables, the PFG conflict edges and the
    Section 6 races (:func:`repro.mutex.races.detect_races`) all read
    it.
    """

    def __init__(self, graph: FlowGraph, sites: dict[str, list[AccessSite]]) -> None:
        paths = self.paths = [block.thread_path for block in graph.blocks]
        self.writes: dict[str, list[int]] = {}
        self.concurrent: dict[str, dict[tuple, list[tuple[int, bool]]]] = {}
        for var, var_sites in sites.items():
            # Sites come in site order, so the first of each (block,
            # role) keeps its place; a memory-access def is a real one.
            accesses = list(
                dict.fromkeys((s.block_id, s.is_def) for s in var_sites if is_memory_access(s))
            )
            writes = [b for b, is_def in accesses if is_def]
            if not writes:
                continue
            concurrent: dict[tuple, list[tuple[int, bool]]] = {}
            for w in writes:
                path = paths[w]
                if path not in concurrent:
                    concurrent[path] = [
                        a for a in accesses if thread_paths_diverge(path, paths[a[0]])
                    ]
            self.writes[var] = writes
            self.concurrent[var] = concurrent

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
        charge the ``cssa`` span for work untraced runs never do."""
        return sum(1 for _ in self._edges())


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

    It holds no statement or access site, so later edits to the program
    do not change the lists, and it pickles with the graph.  Each method
    gives what the matching ``add_*_edges`` function gives on the graph
    it was captured from.
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

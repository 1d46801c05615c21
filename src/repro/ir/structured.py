"""The structured IR tree.

This is the mutable program representation that optimization passes edit
and the printer renders.  The tree mirrors the source structure:

* :class:`ProgramIR` — the root; owns the top-level :class:`Body` and a
  name registry used to mint fresh temporaries.
* :class:`Body` — an ordered container of items, each either a plain
  :class:`~repro.ir.stmts.IRStmt` or a nested :class:`Region`.
* :class:`IfRegion`, :class:`WhileRegion` — structured control flow; the
  condition is an :class:`~repro.ir.stmts.SBranch` statement owned by the
  region.  ``WhileRegion.header_phis`` holds loop-header φ/π terms (they
  execute on every iteration, before the condition).
* :class:`CobeginRegion` / :class:`ThreadRegion` — parallel sections.

Invariant: every statement object appears in exactly one place in the
tree, and its ``parent`` attribute names that place (a :class:`Body`, a
:class:`WhileRegion` for header terms, or a region for its branch).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Union

from repro.errors import TransformError
from repro.ir.expr import EVar
from repro.ir.stmts import ConflictSet, IRStmt, Phi, Pi, SBranch

__all__ = [
    "Body",
    "CobeginRegion",
    "IfRegion",
    "Item",
    "ProgramIR",
    "Region",
    "StmtContext",
    "ThreadRegion",
    "WhileRegion",
    "clone_program",
    "count_statements",
    "iter_statements",
    "remove_stmt",
]

_region_ids = itertools.count()


class Region:
    """Base class for structured control-flow regions."""

    __slots__ = ("uid", "parent")

    def __init__(self) -> None:
        self.uid = next(_region_ids)
        self.parent: Optional[Body] = None


Item = Union[IRStmt, Region]


class Body:
    """An ordered list of statements and nested regions.

    All mutation goes through the methods below so that each item's
    ``parent`` link stays correct.
    """

    __slots__ = ("owner", "items")

    def __init__(self, owner: object = None) -> None:
        self.owner = owner
        self.items: list[Item] = []

    # -- mutation --------------------------------------------------------

    def _adopt(self, item: Item) -> None:
        item.parent = self

    def append(self, item: Item) -> None:
        self._adopt(item)
        self.items.append(item)

    def insert(self, index: int, item: Item) -> None:
        self._adopt(item)
        self.items.insert(index, item)

    def index(self, item: Item) -> int:
        for i, existing in enumerate(self.items):
            if existing is item:
                return i
        raise TransformError(f"item {item!r} not found in body")

    def insert_before(self, anchor: Item, item: Item) -> None:
        self.insert(self.index(anchor), item)

    def insert_after(self, anchor: Item, item: Item) -> None:
        self.insert(self.index(anchor) + 1, item)

    def insert_all_before(self, pairs: list[tuple[Item, Item]]) -> None:
        """Insert each ``(anchor, item)``'s item just before its anchor,
        in one pass: the order ``insert_before`` calls would give."""
        before: dict[int, list[Item]] = {}
        for anchor, item in pairs:
            before.setdefault(id(anchor), []).append(item)
            self._adopt(item)
        items: list[Item] = []
        for existing in self.items:
            items.extend(before.pop(id(existing), ()))
            items.append(existing)
        if before:
            raise TransformError("insertion anchor not found in body")
        self.items = items

    def remove(self, item: Item) -> None:
        self.items.pop(self.index(item))
        item.parent = None

    def remove_all(self, items: list[Item]) -> None:
        """Remove every one of ``items`` in one pass."""
        doomed = {id(item) for item in items}
        kept = [existing for existing in self.items if id(existing) not in doomed]
        if len(kept) != len(self.items) - len(doomed):
            raise TransformError("item to remove not found in body")
        self.items = kept
        for item in items:
            item.parent = None

    def replace(self, item: Item, replacements: list[Item]) -> None:
        """Replace ``item`` with a (possibly empty) list of new items."""
        idx = self.index(item)
        self.items.pop(idx)
        item.parent = None
        for offset, new in enumerate(replacements):
            self._adopt(new)
            self.items.insert(idx + offset, new)

    # -- queries ----------------------------------------------------------

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


class IfRegion(Region):
    """``if (branch.cond) then_body else else_body``."""

    __slots__ = ("branch", "then_body", "else_body")

    def __init__(self, branch: SBranch, then_body: Optional[Body] = None,
                 else_body: Optional[Body] = None) -> None:
        super().__init__()
        self.branch = branch
        branch.parent = self
        self.then_body = then_body if then_body is not None else Body(self)
        self.else_body = else_body if else_body is not None else Body(self)
        self.then_body.owner = self
        self.else_body.owner = self


class WhileRegion(Region):
    """``while (branch.cond) body`` with loop-header φ/π terms.

    ``header_phis`` execute at the top of every iteration, immediately
    before the condition is evaluated.
    """

    __slots__ = ("branch", "header_phis", "body")

    def __init__(self, branch: SBranch, body: Optional[Body] = None) -> None:
        super().__init__()
        self.branch = branch
        branch.parent = self
        self.header_phis: list[IRStmt] = []
        self.body = body if body is not None else Body(self)
        self.body.owner = self

    def add_header_stmt(self, stmt: IRStmt) -> None:
        stmt.parent = self
        self.header_phis.append(stmt)

    def remove_header_stmt(self, stmt: IRStmt) -> None:
        for i, existing in enumerate(self.header_phis):
            if existing is stmt:
                self.header_phis.pop(i)
                stmt.parent = None
                return
        raise TransformError(f"{stmt!r} is not a header term of this loop")


class ThreadRegion:
    """One child thread of a cobegin."""

    __slots__ = ("uid", "label", "body", "cobegin")

    def __init__(self, label: Optional[str], body: Optional[Body] = None) -> None:
        self.uid = next(_region_ids)
        self.label = label
        self.body = body if body is not None else Body(self)
        self.body.owner = self
        self.cobegin: Optional[CobeginRegion] = None


class CobeginRegion(Region):
    """``cobegin T0 ... Tn coend`` — all child threads run concurrently."""

    __slots__ = ("threads",)

    def __init__(self, threads: Optional[list[ThreadRegion]] = None) -> None:
        super().__init__()
        self.threads: list[ThreadRegion] = []
        for thread in threads or []:
            self.add_thread(thread)

    def add_thread(self, thread: ThreadRegion) -> None:
        thread.cobegin = self
        self.threads.append(thread)


class ProgramIR:
    """Root of the structured IR.

    Attributes
    ----------
    body:
        The top-level statement sequence.
    known_names:
        Every base variable name in use (source variables, mangled
        privates, π temporaries); consulted when minting fresh names.
    private_names:
        The mangled names produced from ``private`` declarations.
    """

    __slots__ = ("body", "known_names", "private_names")

    def __init__(self) -> None:
        self.body = Body(self)
        self.known_names: set[str] = set()
        self.private_names: set[str] = set()

    def register_name(self, name: str) -> None:
        self.known_names.add(name)

    def fresh_name(self, candidate: str) -> str:
        """Return ``candidate`` if unused, else ``candidate1``, ... ;
        registers and returns the chosen name."""
        name = candidate
        counter = 1
        while name in self.known_names:
            name = f"{candidate}{counter}"
            counter += 1
        self.known_names.add(name)
        return name


class StmtContext:
    """Where a statement sits, in enough detail to remove or replace it."""

    __slots__ = ("kind", "container", "thread_path")

    def __init__(self, kind: str, container: object, thread_path: tuple) -> None:
        #: "body" | "header" | "branch"
        self.kind = kind
        self.container = container
        #: tuple of (cobegin_uid, thread_index) pairs enclosing the stmt
        self.thread_path = thread_path


def iter_statements(
    program: ProgramIR,
    include_branches: bool = True,
) -> Iterator[tuple[IRStmt, StmtContext]]:
    """Yield ``(stmt, context)`` for every statement, in program order."""
    yield from _iter_body(program.body, (), include_branches)


def _iter_body(
    body: Body, thread_path: tuple, include_branches: bool
) -> Iterator[tuple[IRStmt, StmtContext]]:
    for item in list(body.items):
        if isinstance(item, IRStmt):
            yield item, StmtContext("body", body, thread_path)
        elif isinstance(item, IfRegion):
            if include_branches:
                yield item.branch, StmtContext("branch", item, thread_path)
            yield from _iter_body(item.then_body, thread_path, include_branches)
            yield from _iter_body(item.else_body, thread_path, include_branches)
        elif isinstance(item, WhileRegion):
            for stmt in list(item.header_phis):
                yield stmt, StmtContext("header", item, thread_path)
            if include_branches:
                yield item.branch, StmtContext("branch", item, thread_path)
            yield from _iter_body(item.body, thread_path, include_branches)
        elif isinstance(item, CobeginRegion):
            for idx, thread in enumerate(item.threads):
                yield from _iter_body(
                    thread.body, thread_path + ((item.uid, idx),), include_branches
                )
        else:  # pragma: no cover - defensive
            raise TransformError(f"unknown body item {item!r}")


def count_statements(program: ProgramIR, include_branches: bool = False) -> int:
    """Number of statements in the program (a simple size metric)."""
    return sum(1 for _ in iter_statements(program, include_branches))


def remove_stmt(stmt: IRStmt) -> None:
    """Remove a statement from wherever it lives in the tree."""
    parent = stmt.parent
    if isinstance(parent, Body):
        parent.remove(stmt)
    elif isinstance(parent, WhileRegion):
        parent.remove_header_stmt(stmt)
    elif parent is None:
        raise TransformError(f"{stmt!r} is not attached to the tree")
    else:
        raise TransformError(f"cannot remove a branch condition: {stmt!r}")


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------


def clone_program(program: ProgramIR) -> ProgramIR:
    """Deep-copy a program.

    Statement objects are cloned; ``EVar.def_site`` links that point at
    cloned statements are remapped to the copies, so an SSA-form program
    clones into a consistent SSA-form program.
    """
    stmt_map: dict[int, IRStmt] = {}

    new = ProgramIR()
    new.known_names = set(program.known_names)
    new.private_names = set(program.private_names)
    new.body = _clone_body(program.body, new, stmt_map)

    # Second pass: remap def_site links into the cloned statements.
    # A π conflict set is shared, so it is remapped once, into one new
    # set that the cloned πs share in turn.
    new_sets: dict[int, ConflictSet] = {}
    for stmt, _ctx in iter_statements(new):
        if not isinstance(stmt, Pi):
            for var in stmt.uses():
                _remap_def_site(var, stmt_map)
            continue
        _remap_def_site(stmt.control, stmt_map)
        old = stmt.conflict_set
        mapped = new_sets.get(id(old))
        if mapped is None:
            members = [var.copy() for var in old]
            for var in members:
                _remap_def_site(var, stmt_map)
            mapped = new_sets[id(old)] = ConflictSet.of(members)
        stmt.conflict_set = mapped
    return new


def _remap_def_site(var: EVar, stmt_map: dict[int, IRStmt]) -> None:
    site = var.def_site
    if isinstance(site, IRStmt):
        mapped = stmt_map.get(site.uid)
        if mapped is not None:
            var.def_site = mapped


def _clone_stmt(stmt: IRStmt, stmt_map: dict[int, IRStmt]) -> IRStmt:
    copy = stmt.clone()
    stmt_map[stmt.uid] = copy
    return copy


def _clone_body(body: Body, owner: object, stmt_map: dict[int, IRStmt]) -> Body:
    new = Body(owner)
    for item in body.items:
        if isinstance(item, IRStmt):
            new.append(_clone_stmt(item, stmt_map))
        elif isinstance(item, IfRegion):
            branch = _clone_stmt(item.branch, stmt_map)
            region = IfRegion(branch)
            region.then_body = _clone_body(item.then_body, region, stmt_map)
            region.else_body = _clone_body(item.else_body, region, stmt_map)
            new.append(region)
        elif isinstance(item, WhileRegion):
            branch = _clone_stmt(item.branch, stmt_map)
            region = WhileRegion(branch)
            for header in item.header_phis:
                region.add_header_stmt(_clone_stmt(header, stmt_map))
            region.body = _clone_body(item.body, region, stmt_map)
            new.append(region)
        elif isinstance(item, CobeginRegion):
            region = CobeginRegion()
            for thread in item.threads:
                t = ThreadRegion(thread.label)
                t.body = _clone_body(thread.body, t, stmt_map)
                region.add_thread(t)
            new.append(region)
        else:  # pragma: no cover - defensive
            raise TransformError(f"unknown body item {item!r}")
    return new

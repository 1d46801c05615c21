"""IR statement classes, including the SSA terms φ (:class:`Phi`) and
π (:class:`Pi`).

Statements are shared between the structured IR tree and the flow graph:
both hold references to the same objects, so an edit is visible in both
views.  Every statement knows how to enumerate its variable *use sites*
(:meth:`IRStmt.uses`) and its *definition* (:meth:`IRStmt.def_name`), the
two primitives all dataflow analyses are built on.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.ir.expr import (
    EVar,
    IRExpr,
    clone_expr,
    expr_to_str,
    iter_expr_vars,
    map_expr_vars,
)

__all__ = [
    "ConflictSet",
    "IRStmt",
    "SBarrier",
    "Phi",
    "PhiArg",
    "Pi",
    "SAssign",
    "SBranch",
    "SCallStmt",
    "SLock",
    "SPrint",
    "SSetEvent",
    "SSkip",
    "SUnlock",
    "SWaitEvent",
]

_stmt_ids = itertools.count()


class IRStmt:
    """Base class for IR statements.

    Attributes
    ----------
    uid:
        A process-unique integer used for deterministic ordering and as a
        dictionary key (statements are also hashable by identity).
    parent:
        Where the statement lives: a :class:`repro.ir.structured.Body`,
        a :class:`repro.ir.structured.WhileRegion` (for loop-header φ/π
        terms) or a region (for branch conditions).  Maintained by the
        structured-IR containers.
    """

    __slots__ = ("uid", "parent")

    def __init__(self) -> None:
        self.uid = next(_stmt_ids)
        self.parent = None

    # -- dataflow primitives -------------------------------------------

    def uses(self) -> Iterator[EVar]:
        """Yield every variable use site in this statement."""
        return iter(())

    def def_name(self) -> Optional[str]:
        """Base name of the variable this statement defines, if any."""
        return None

    def def_version(self) -> Optional[int]:
        """SSA version of the definition, if any."""
        return None

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        """Apply ``fn`` to every use site, replacing it with the result."""

    # -- misc ------------------------------------------------------------

    def clone(self) -> "IRStmt":
        """Deep copy (new uid, no parent)."""
        raise NotImplementedError

    def to_str(self) -> str:
        """Single-line source-ish rendering with SSA display names."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}#{self.uid} {self.to_str()}>"


class SAssign(IRStmt):
    """``target = value`` — the only ordinary definition statement."""

    __slots__ = ("target", "version", "value")

    def __init__(self, target: str, value: IRExpr, version: Optional[int] = None) -> None:
        super().__init__()
        self.target = target
        self.version = version
        self.value = value

    def uses(self) -> Iterator[EVar]:
        return iter_expr_vars(self.value)

    def def_name(self) -> Optional[str]:
        return self.target

    def def_version(self) -> Optional[int]:
        return self.version

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        self.value = map_expr_vars(self.value, fn)

    @property
    def ssa_target(self) -> str:
        if self.version is None:
            return self.target
        return f"{self.target}{self.version}"

    def clone(self) -> "SAssign":
        return SAssign(self.target, clone_expr(self.value), self.version)

    def to_str(self) -> str:
        return f"{self.ssa_target} = {expr_to_str(self.value)};"


class SPrint(IRStmt):
    """``print(e1, ..., en)`` — observable output; always live."""

    __slots__ = ("args",)

    def __init__(self, args: Sequence[IRExpr]) -> None:
        super().__init__()
        self.args = list(args)

    def uses(self) -> Iterator[EVar]:
        for arg in self.args:
            yield from iter_expr_vars(arg)

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        self.args = [map_expr_vars(a, fn) for a in self.args]

    def clone(self) -> "SPrint":
        return SPrint([clone_expr(a) for a in self.args])

    def to_str(self) -> str:
        return f"print({', '.join(expr_to_str(a) for a in self.args)});"


class SCallStmt(IRStmt):
    """``f(e1, ..., en);`` — opaque side-effecting call; always live."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[IRExpr]) -> None:
        super().__init__()
        self.func = func
        self.args = list(args)

    def uses(self) -> Iterator[EVar]:
        for arg in self.args:
            yield from iter_expr_vars(arg)

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        self.args = [map_expr_vars(a, fn) for a in self.args]

    def clone(self) -> "SCallStmt":
        return SCallStmt(self.func, [clone_expr(a) for a in self.args])

    def to_str(self) -> str:
        return f"{self.func}({', '.join(expr_to_str(a) for a in self.args)});"


class SLock(IRStmt):
    """``lock(L);`` — occupies its own flow-graph node (paper Def. 1)."""

    __slots__ = ("lock_name",)

    def __init__(self, lock_name: str) -> None:
        super().__init__()
        self.lock_name = lock_name

    def clone(self) -> "SLock":
        return SLock(self.lock_name)

    def to_str(self) -> str:
        return f"lock({self.lock_name});"


class SUnlock(IRStmt):
    """``unlock(L);`` — occupies its own flow-graph node."""

    __slots__ = ("lock_name",)

    def __init__(self, lock_name: str) -> None:
        super().__init__()
        self.lock_name = lock_name

    def clone(self) -> "SUnlock":
        return SUnlock(self.lock_name)

    def to_str(self) -> str:
        return f"unlock({self.lock_name});"


class SSetEvent(IRStmt):
    """``set(e);`` — event signal (Set with no Clear, as in the paper)."""

    __slots__ = ("event_name",)

    def __init__(self, event_name: str) -> None:
        super().__init__()
        self.event_name = event_name

    def clone(self) -> "SSetEvent":
        return SSetEvent(self.event_name)

    def to_str(self) -> str:
        return f"set({self.event_name});"


class SWaitEvent(IRStmt):
    """``wait(e);`` — blocks until the event is set."""

    __slots__ = ("event_name",)

    def __init__(self, event_name: str) -> None:
        super().__init__()
        self.event_name = event_name

    def clone(self) -> "SWaitEvent":
        return SWaitEvent(self.event_name)

    def to_str(self) -> str:
        return f"wait({self.event_name});"


class SBarrier(IRStmt):
    """``barrier(B);`` — cyclic barrier (Section 7 extension).

    Participants are the sibling threads of the nearest enclosing
    cobegin that syntactically mention ``B``; the VM computes the count
    at compile time.  Like the other synchronization operations it gets
    its own PFG node, is never dead, and never moves.
    """

    __slots__ = ("barrier_name",)

    def __init__(self, barrier_name: str) -> None:
        super().__init__()
        self.barrier_name = barrier_name

    def clone(self) -> "SBarrier":
        return SBarrier(self.barrier_name)

    def to_str(self) -> str:
        return f"barrier({self.barrier_name});"


class SSkip(IRStmt):
    """The empty statement."""

    __slots__ = ()

    def clone(self) -> "SSkip":
        return SSkip()

    def to_str(self) -> str:
        return "skip;"


class SBranch(IRStmt):
    """A branch condition.

    Owned by an :class:`repro.ir.structured.IfRegion` or
    :class:`repro.ir.structured.WhileRegion`; appears in the flow graph
    as the terminator of the condition block.
    """

    __slots__ = ("cond",)

    def __init__(self, cond: IRExpr) -> None:
        super().__init__()
        self.cond = cond

    def uses(self) -> Iterator[EVar]:
        return iter_expr_vars(self.cond)

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        self.cond = map_expr_vars(self.cond, fn)

    def clone(self) -> "SBranch":
        return SBranch(clone_expr(self.cond))

    def to_str(self) -> str:
        return f"branch ({expr_to_str(self.cond)})"


class PhiArg:
    """One φ argument: the SSA use plus the predecessor block it enters
    from (and, at coend nodes, the index of the contributing thread)."""

    __slots__ = ("var", "pred_block", "thread_index")

    def __init__(self, var: EVar, pred_block: int, thread_index: Optional[int] = None) -> None:
        self.var = var
        self.pred_block = pred_block
        self.thread_index = thread_index

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhiArg({self.var.ssa_name}, pred={self.pred_block})"


class Phi(IRStmt):
    """``v_k = φ(v_i, v_j, ...)`` — control-flow merge of SSA names.

    Placed at if-joins, loop headers and (after the paper's trimming
    rule) at coend nodes where at least two child threads define ``v``.
    """

    __slots__ = ("target", "version", "args")

    def __init__(self, target: str, version: Optional[int], args: Sequence[PhiArg]) -> None:
        super().__init__()
        self.target = target
        self.version = version
        self.args = list(args)

    def uses(self) -> Iterator[EVar]:
        for arg in self.args:
            yield arg.var

    def def_name(self) -> Optional[str]:
        return self.target

    def def_version(self) -> Optional[int]:
        return self.version

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        # φ arguments must remain plain variables; only var-to-var
        # rewrites are meaningful here.
        for arg in self.args:
            new = fn(arg.var)
            if isinstance(new, EVar):
                arg.var = new

    @property
    def ssa_target(self) -> str:
        if self.version is None:
            return self.target
        return f"{self.target}{self.version}"

    def clone(self) -> "Phi":
        return Phi(
            self.target,
            self.version,
            [PhiArg(a.var.copy(), a.pred_block, a.thread_index) for a in self.args],
        )

    def to_str(self) -> str:
        args = ", ".join(a.var.ssa_name for a in self.args)
        return f"{self.ssa_target} = phi({args});"


class ConflictSet:
    """The conflict arguments of π terms, stored once and shared.

    Every use of ``v`` on one thread path lists the same concurrent
    definitions (paper Section 4), so π placement gives all of those πs
    one set, and each pass that filters arguments does so once per set.
    Sets are immutable and interned by the identity of their members:
    :meth:`of` returns the live set with exactly those members when
    there is one.  Members are shared by every π holding the set, so no
    code may edit one in place; assigning ``Pi.conflicts`` builds (or
    finds) another set instead, which leaves every other holder
    unchanged.
    """

    __slots__ = ("members", "_text", "_names", "__weakref__")

    #: member ids → the live set with those members
    _interned: "weakref.WeakValueDictionary[tuple, ConflictSet]" = (
        weakref.WeakValueDictionary()
    )

    def __init__(self, members: tuple) -> None:
        self.members: tuple[EVar, ...] = members
        self._text: Optional[str] = None
        self._names: Optional[frozenset[str]] = None

    @classmethod
    def of(cls, members: Iterable[EVar]) -> "ConflictSet":
        """The interned set of ``members`` (in order)."""
        members = tuple(members)
        key = tuple(map(id, members))
        found = cls._interned.get(key)
        if found is None:
            found = cls(members)
            cls._interned[key] = found
        return found

    @property
    def text(self) -> str:
        """The members' SSA names, comma-separated (cached)."""
        if self._text is None:
            self._text = ", ".join(v.ssa_name for v in self.members)
        return self._text

    @property
    def names(self) -> frozenset[str]:
        """The base variable names the members read (cached)."""
        if self._names is None:
            self._names = frozenset(v.name for v in self.members)
        return self._names

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[EVar]:
        return iter(self.members)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConflictSet({self.text})"


class Pi(IRStmt):
    """``t = π(v_ctrl, v_d1, ..., v_dn)`` — a CSSA π term.

    The first argument flows in through the control edge (the FUD chain
    of the original use); the remaining *conflict arguments* are the
    definitions of the same shared variable in concurrent threads that
    may reach this point (paper Section 4).  CSSAME (Algorithm A.3)
    removes conflict arguments proven unreachable by Theorems 1 and 2; a
    π reduced to its control argument alone is deleted.

    The conflict arguments live in :attr:`conflict_set`, a
    :class:`ConflictSet` shared with every π listing the same
    definitions; :attr:`conflicts` reads its members, and assigning it
    gives this π a new set (copy-on-write).

    ``var_name`` records which shared variable the π protects.  The
    target is a fresh single-assignment temporary, so ``version`` is
    always ``None``.
    """

    __slots__ = ("target", "var_name", "control", "conflict_set")

    def __init__(
        self,
        target: str,
        var_name: str,
        control: EVar,
        conflicts: "ConflictSet | Sequence[EVar]",
    ) -> None:
        super().__init__()
        self.target = target
        self.var_name = var_name
        self.control = control
        if not isinstance(conflicts, ConflictSet):
            conflicts = ConflictSet.of(conflicts)
        self.conflict_set = conflicts

    @property
    def conflicts(self) -> tuple[EVar, ...]:
        """The conflict arguments (read-only; assign to replace)."""
        return self.conflict_set.members

    @conflicts.setter
    def conflicts(self, members: Iterable[EVar]) -> None:
        self.conflict_set = ConflictSet.of(members)

    def uses(self) -> Iterator[EVar]:
        yield self.control
        yield from self.conflict_set.members

    def def_name(self) -> Optional[str]:
        return self.target

    def def_version(self) -> Optional[int]:
        return None

    def rewrite_exprs(self, fn: Callable[[EVar], IRExpr]) -> None:
        new_ctrl = fn(self.control)
        if isinstance(new_ctrl, EVar):
            self.control = new_ctrl
        new_conflicts = []
        for var in self.conflicts:
            new = fn(var)
            new_conflicts.append(new if isinstance(new, EVar) else var)
        self.conflicts = new_conflicts

    @property
    def ssa_target(self) -> str:
        return self.target

    def clone(self) -> "Pi":
        return Pi(self.target, self.var_name, self.control.copy(), self.conflict_set)

    def to_str(self) -> str:
        if not self.conflict_set:
            return f"{self.target} = pi({self.control.ssa_name});"
        return f"{self.target} = pi({self.control.ssa_name}, {self.conflict_set.text});"

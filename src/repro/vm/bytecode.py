"""VM instruction set.

A compiled program is a flat array of :class:`Instr`.  Control flow uses
absolute PCs.  ``COBEGIN`` carries the entry PC of each child thread and
the PC where the parent resumes after all children finish; every child
segment ends with ``END_THREAD``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Sequence

from repro.ir.expr import IRExpr

__all__ = ["Instr", "Op", "VMProgram"]


class Op(enum.Enum):
    ASSIGN = "assign"        # a = expr
    PRINT = "print"          # observable output
    CALL = "call"            # observable opaque call
    LOCK = "lock"            # blocking acquire
    UNLOCK = "unlock"        # release
    SET = "set"              # event signal (sticky)
    WAIT = "wait"            # block until event set
    BARRIER = "barrier"      # cyclic barrier; target = participant count
    JUMP = "jump"            # unconditional
    BRANCH = "branch"        # fall through if true, jump if false
    COBEGIN = "cobegin"      # spawn children, parent joins
    END_THREAD = "end_thread"
    HALT = "halt"


class Instr:
    """One instruction.

    Field meaning depends on ``op``:

    * ASSIGN: ``name`` = target, ``expr`` = RHS
    * PRINT:  ``exprs`` = printed expressions
    * CALL:   ``name`` = function, ``exprs`` = arguments
    * LOCK/UNLOCK/SET/WAIT: ``name`` = lock/event
    * JUMP:   ``target``
    * BRANCH: ``expr`` = condition, ``target`` = PC when false
    * COBEGIN: ``entries`` = child entry PCs, ``target`` = parent resume
    """

    __slots__ = ("op", "name", "expr", "exprs", "target", "entries")

    def __init__(
        self,
        op: Op,
        name: Optional[str] = None,
        expr: Optional[IRExpr] = None,
        exprs: Optional[Sequence[IRExpr]] = None,
        target: Optional[int] = None,
        entries: Optional[Sequence[int]] = None,
    ) -> None:
        self.op = op
        self.name = name
        self.expr = expr
        self.exprs = list(exprs) if exprs is not None else None
        self.target = target
        self.entries = list(entries) if entries is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        if self.name is not None:
            parts.append(self.name)
        if self.target is not None:
            parts.append(f"->{self.target}")
        if self.entries is not None:
            parts.append(f"entries={self.entries}")
        return f"<{' '.join(parts)}>"


class VMProgram:
    """A compiled program: instruction array plus its entry PC.

    Tables derived from the instructions (the machine's compiled
    evaluators, the happens-before access map) are built once per
    program by :meth:`derived`.  They hold closures, so pickling keeps
    only the instructions and the entry PC.
    """

    __slots__ = ("instrs", "entry", "_derived")

    def __init__(self, instrs: list[Instr], entry: int = 0) -> None:
        self.instrs = instrs
        self.entry = entry
        self._derived: dict[str, Any] = {}

    def derived(self, key: str, build: Callable[["VMProgram"], Any]) -> Any:
        """``build(self)``, computed on first request for ``key`` and
        shared by every later caller."""
        table = self._derived.get(key)
        if table is None:
            table = self._derived[key] = build(self)
        return table

    def __getstate__(self) -> tuple:
        return None, {"instrs": self.instrs, "entry": self.entry}

    def __setstate__(self, state: tuple) -> None:
        slots = state[1]
        self.instrs = slots["instrs"]
        self.entry = slots["entry"]
        self._derived = {}

    def __len__(self) -> int:
        return len(self.instrs)

    def disassemble(self) -> str:
        """Human-readable listing (used in tests and debugging)."""
        from repro.ir.expr import expr_to_str

        lines = []
        for pc, instr in enumerate(self.instrs):
            detail = ""
            if instr.op is Op.ASSIGN:
                detail = f"{instr.name} = {expr_to_str(instr.expr)}"
            elif instr.op in (Op.PRINT, Op.CALL):
                args = ", ".join(expr_to_str(e) for e in instr.exprs or [])
                prefix = instr.name or "print"
                detail = f"{prefix}({args})"
            elif instr.op in (Op.LOCK, Op.UNLOCK, Op.SET, Op.WAIT):
                detail = f"{instr.op.value}({instr.name})"
            elif instr.op is Op.BARRIER:
                detail = f"barrier({instr.name}) /{instr.target}"
            elif instr.op is Op.JUMP:
                detail = f"goto {instr.target}"
            elif instr.op is Op.BRANCH:
                detail = f"if !({expr_to_str(instr.expr)}) goto {instr.target}"
            elif instr.op is Op.COBEGIN:
                detail = f"spawn {instr.entries} join@{instr.target}"
            else:
                detail = instr.op.value
            lines.append(f"{pc:4d}: {detail}")
        return "\n".join(lines)

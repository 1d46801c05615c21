"""Algorithm A.4 — parallel reaching definitions.

Follows factored use-def chains through φ and π terms: for every use
``u``, ``followChain(chain(u), u)`` walks the SSA graph, collecting the
*real* definitions (plain assignments and entry values) whose value may
flow into ``u``, and symmetrically the reached uses of every definition.
The ``marked`` table from the paper prevents revisiting a definition for
the same use, making the walk linear per use.
"""

from __future__ import annotations

from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Phi, Pi, SAssign
from repro.ir.structured import ProgramIR
from repro.ssa.chains import iter_uses
from repro.ssa.names import EntryDef

__all__ = ["ReachingInfo", "parallel_reaching_definitions"]


class ReachingInfo:
    """defs(u) and uses(d) for a whole program."""

    def __init__(self) -> None:
        #: use site → list of reaching definition sites
        self.defs_of_use: dict[EVar, list[object]] = {}
        #: definition site → list of (use site, holder stmt)
        self.uses_of_def: dict[object, list[tuple[EVar, IRStmt]]] = {}
        #: use site → holder statement (for a π conflict-set member,
        #: shared by every π holding the set, the first such π)
        self.holder_of_use: dict[EVar, IRStmt] = {}

    def defs(self, use: EVar) -> list[object]:
        return self.defs_of_use.get(use, [])

    def uses(self, def_site: object) -> list[tuple[EVar, IRStmt]]:
        return self.uses_of_def.get(def_site, [])

    def reached_stmts(self, def_site: object) -> list[IRStmt]:
        return [holder for _use, holder in self.uses(def_site)]


def parallel_reaching_definitions(program: ProgramIR) -> ReachingInfo:
    """Run Algorithm A.4 over an SSA/CSSA/CSSAME-form program."""
    info = ReachingInfo()
    marked: dict[object, EVar] = {}

    for use, holder in iter_uses(program):
        seen = info.defs_of_use.get(use)
        if seen is not None:
            # A π conflict-set member is one use site shared by every π
            # holding the set: walk it once, and record each further
            # holder against the definitions that walk found.
            for d in seen:
                info.uses_of_def[d].append((use, holder))
            continue
        info.holder_of_use[use] = holder
        defs_list = info.defs_of_use.setdefault(use, [])
        start = use.def_site
        if start is None:
            continue
        stack = [start]
        while stack:
            d = stack.pop()
            if marked.get(id(d)) is use:
                continue
            marked[id(d)] = use
            if isinstance(d, (SAssign, EntryDef)):
                defs_list.append(d)
                info.uses_of_def.setdefault(d, []).append((use, holder))
            if isinstance(d, Phi):
                for arg in d.args:
                    if arg.var.def_site is not None:
                        stack.append(arg.var.def_site)
            elif isinstance(d, Pi):
                if d.control.def_site is not None:
                    stack.append(d.control.def_site)
                for conflict in d.conflicts:
                    if conflict.def_site is not None:
                        stack.append(conflict.def_site)
    return info

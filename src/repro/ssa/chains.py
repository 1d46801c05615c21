"""Use-def / def-use maps over an SSA-form program.

``chain(u)`` itself lives on each use site
(:attr:`repro.ir.expr.EVar.def_site`); this module builds the reverse
maps passes need: which use sites a definition feeds, and which
statement holds each use.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.expr import EVar
from repro.ir.stmts import ConflictSet, IRStmt, Pi
from repro.ir.structured import ProgramIR, iter_statements

__all__ = ["UseMap", "build_use_map", "defs_in_program", "iter_uses"]


class UseMap:
    """Reverse FUD chains: def site → list of (use site, holder stmt).

    A π conflict set is recorded once, not once per π holding it: the
    map keeps the πs holding each set and the sets listing each
    definition, and :meth:`uses_of` expands them.
    """

    def __init__(self) -> None:
        self._map: dict[object, list[tuple[EVar, IRStmt]]] = {}
        #: conflict set → the πs holding it
        self._holders: dict[ConflictSet, list[Pi]] = {}
        #: def site → (conflict set, its member naming the def)
        self._member_of: dict[object, list[tuple[ConflictSet, EVar]]] = {}

    def add(self, def_site: object, use: EVar, holder: IRStmt) -> None:
        self._map.setdefault(def_site, []).append((use, holder))

    def add_pi(self, pi: Pi) -> None:
        """Record a π: its control use, and its conflict set once."""
        if pi.control.def_site is not None:
            self.add(pi.control.def_site, pi.control, pi)
        holders = self._holders.get(pi.conflict_set)
        if holders is None:
            holders = self._holders[pi.conflict_set] = []
            for member in pi.conflict_set:
                if member.def_site is not None:
                    self._member_of.setdefault(member.def_site, []).append(
                        (pi.conflict_set, member)
                    )
        holders.append(pi)

    def direct_uses_of(self, def_site: object) -> list[tuple[EVar, IRStmt]]:
        """:meth:`uses_of` without the conflict-set members."""
        return self._map.get(def_site, [])

    def sets_of(self, def_site: object) -> list[ConflictSet]:
        """The recorded conflict sets listing ``def_site``."""
        return [cset for cset, _member in self._member_of.get(def_site, ())]

    def pis_holding(self, cset: ConflictSet) -> list[Pi]:
        return self._holders.get(cset, [])

    def uses_of(self, def_site: object) -> list[tuple[EVar, IRStmt]]:
        found = self._map.get(def_site, [])
        member_of = self._member_of.get(def_site)
        if not member_of:
            return found
        expanded = list(found)
        for cset, member in member_of:
            expanded.extend((member, pi) for pi in self._holders[cset])
        return expanded

    def holders_of(self, def_site: object) -> list[IRStmt]:
        """The holders of :meth:`uses_of`, in its order."""
        holders = [holder for _use, holder in self._map.get(def_site, ())]
        for cset, _member in self._member_of.get(def_site, ()):
            holders.extend(self._holders[cset])
        return holders

    def is_dead(self, def_site: object) -> bool:
        return not self._map.get(def_site) and not self._member_of.get(def_site)

    def __len__(self) -> int:
        return len(self._map.keys() | self._member_of.keys())


def iter_uses(program: ProgramIR) -> Iterator[tuple[EVar, IRStmt]]:
    """Every (use site, holder statement) in the program, including φ
    arguments, π arguments and branch conditions.  A π conflict set's
    members are yielded once per π holding it."""
    for stmt, _ctx in iter_statements(program):
        for use in stmt.uses():
            yield use, stmt


def build_use_map(program: ProgramIR) -> UseMap:
    """Build the def→uses map for an SSA-form program."""
    usemap = UseMap()
    for stmt, _ctx in iter_statements(program):
        if isinstance(stmt, Pi):
            usemap.add_pi(stmt)
            continue
        for use in stmt.uses():
            if use.def_site is not None:
                usemap.add(use.def_site, use, stmt)
    return usemap


def defs_in_program(program: ProgramIR) -> list[IRStmt]:
    """All defining statements (assignments, φ terms, π terms)."""
    return [
        stmt
        for stmt, _ctx in iter_statements(program)
        if stmt.def_name() is not None
    ]

"""Reference explorer with its own transition function (test oracle).

This is the explorer as it was before it shared
:meth:`repro.vm.machine.Machine.step` with the VM: a private copy of the
interleaving semantics over the machine's earlier state encoding
(zero-valued variables dropped, memory, locks and events as sorted name
pairs or names).  That encoding is a bijection with the machine's
slot-indexed states, so the property suite checks that
:func:`repro.vm.explore.explore` reports the same outcome sets and
state counts as this oracle, and maps each transition between the two.  Two deliberate
differences from the production code: error outcomes carry this
module's own message (compare them by kind only), and the oracle has
no witness search.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import VMError
from repro.opt.folding import eval_expr_concrete
from repro.vm.bytecode import Op, VMProgram
from repro.vm.machine import default_functions

__all__ = ["oracle_explore", "oracle_transitions"]


class _OracleExplorer:
    def __init__(
        self,
        program: VMProgram,
        functions: Callable[[str, list[int]], int],
        max_states: int,
    ) -> None:
        self.program = program
        self.functions = functions
        self.max_states = max_states
        self.memo: dict[tuple, frozenset] = {}
        self.gray: set[tuple] = set()
        self.truncated = False

    def initial_state(self) -> tuple:
        threads = ((((), self.program.entry, "r", 0)),)
        return (threads, (), (), ())

    def _eval(self, expr, memory: dict) -> int:
        return eval_expr_concrete(
            expr, lambda name: memory.get(name, 0), self.functions
        )

    def _runnable(self, state: tuple) -> list[int]:
        threads, _memory_t, locks_t, events_t = state
        locks = dict(locks_t)
        events = set(events_t)
        out = []
        for i, (_tid, pc, status, _pending) in enumerate(threads):
            if status != "r":
                continue
            instr = self.program.instrs[pc]
            if instr.op is Op.LOCK and locks.get(instr.name) is not None:
                continue
            if instr.op is Op.WAIT and instr.name not in events:
                continue
            out.append(i)
        return out

    def _step(self, state: tuple, index: int) -> tuple[Optional[tuple], tuple]:
        threads_t, memory_t, locks_t, events_t = state
        threads = {t[0]: list(t) for t in threads_t}
        memory = dict(memory_t)
        locks = dict(locks_t)
        events = set(events_t)

        tid = threads_t[index][0]
        rec = threads[tid]
        instr = self.program.instrs[rec[1]]
        op = instr.op
        event: Optional[tuple] = None

        if op is Op.ASSIGN:
            memory[instr.name] = self._eval(instr.expr, memory)
            rec[1] += 1
        elif op is Op.PRINT:
            event = ("print", tuple(self._eval(e, memory) for e in instr.exprs))
            rec[1] += 1
        elif op is Op.CALL:
            event = (
                "call",
                instr.name,
                tuple(self._eval(e, memory) for e in instr.exprs),
            )
            rec[1] += 1
        elif op is Op.LOCK:
            locks[instr.name] = tid
            rec[1] += 1
        elif op is Op.UNLOCK:
            if locks.get(instr.name) != tid:
                raise VMError(f"unlock of un-owned lock {instr.name}")
            del locks[instr.name]
            rec[1] += 1
        elif op is Op.SET:
            events.add(instr.name)
            rec[1] += 1
        elif op is Op.WAIT:
            rec[1] += 1
        elif op is Op.BARRIER:
            waiting = [
                t_id
                for t_id, t_rec in threads.items()
                if t_rec[2] == "b"
                and self.program.instrs[t_rec[1]].op is Op.BARRIER
                and self.program.instrs[t_rec[1]].name == instr.name
            ]
            if len(waiting) + 1 >= (instr.target or 1):
                for t_id in waiting:
                    threads[t_id][2] = "r"
                    threads[t_id][1] += 1
                rec[1] += 1
            else:
                rec[2] = "b"
        elif op is Op.JUMP:
            rec[1] = instr.target
        elif op is Op.BRANCH:
            if self._eval(instr.expr, memory) != 0:
                rec[1] += 1
            else:
                rec[1] = instr.target
        elif op is Op.COBEGIN:
            rec[2] = "j"
            rec[3] = len(instr.entries)
            rec[1] = instr.target
            for i, entry in enumerate(instr.entries):
                child_tid = tid + (i,)
                threads[child_tid] = [child_tid, entry, "r", 0]
        elif op is Op.END_THREAD or op is Op.HALT:
            del threads[tid]
            if op is Op.END_THREAD:
                parent = threads[tid[:-1]]
                parent[3] -= 1
                if parent[3] == 0:
                    parent[2] = "r"
        else:  # pragma: no cover - defensive
            raise VMError(f"unknown instruction {instr!r}")

        new_threads = tuple(tuple(threads[k]) for k in sorted(threads.keys()))
        new_memory = tuple(sorted((k, v) for k, v in memory.items() if v != 0))
        new_locks = tuple(sorted(locks.items()))
        new_events = tuple(sorted(events))
        return event, (new_threads, new_memory, new_locks, new_events)

    def outcomes(self, state: tuple) -> frozenset:
        cached = self.memo.get(state)
        if cached is not None:
            return cached
        if state in self.gray:
            return frozenset({(("livelock",),)})
        if not state[0]:
            result = frozenset({()})
            self.memo[state] = result
            return result
        if len(self.memo) >= self.max_states:
            self.truncated = True
            return frozenset({(("truncated",),)})

        self.gray.add(state)
        runnable = self._runnable(state)
        collected: set = set()
        if not runnable:
            collected.add((("deadlock",),))
        else:
            for index in runnable:
                try:
                    event, next_state = self._step(state, index)
                except VMError as exc:
                    collected.add((("error", str(exc)),))
                    continue
                for suffix in self.outcomes(next_state):
                    collected.add(suffix if event is None else (event,) + suffix)
        self.gray.remove(state)
        result = frozenset(collected)
        if not self.truncated:
            self.memo[state] = result
        return result


def oracle_explore(
    program: VMProgram,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> tuple[frozenset, int, bool]:
    """``(outcomes, states, complete)`` of ``program`` by the oracle."""
    explorer = _OracleExplorer(program, functions or default_functions, max_states)
    outcomes = explorer.outcomes(explorer.initial_state())
    return outcomes, len(explorer.memo), not explorer.truncated


def oracle_transitions(
    program: VMProgram,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> dict[tuple, list[tuple]]:
    """Every state the oracle memoizes → its ``(tid, event, next_state)``
    transitions, one per runnable thread; a failing step is
    ``(tid, ("error",), None)``."""
    explorer = _OracleExplorer(program, functions or default_functions, max_states)
    explorer.outcomes(explorer.initial_state())
    transitions = {}
    for state in explorer.memo:
        out = []
        for index in explorer._runnable(state):
            tid = state[0][index][0]
            try:
                event, next_state = explorer._step(state, index)
            except VMError:
                event, next_state = ("error",), None
            out.append((tid, event, next_state))
        transitions[state] = out
    return transitions

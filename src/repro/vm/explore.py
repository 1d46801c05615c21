"""Exhaustive interleaving exploration (a tiny model checker).

Enumerates **every** schedule of a compiled program by depth-first
search over canonical machine states, memoizing the set of observable
outcome suffixes per state.  An *outcome* is the tuple of observable
events (``("print", values)`` / ``("call", name, values)``) produced by
one complete schedule, optionally terminated by a ``("deadlock",)`` or
``("error", msg)`` marker; a state cycle (livelock) contributes a
``("livelock",)`` marker.

The verification suite uses :func:`explore` to prove that an optimized
program has exactly the same outcome set as the original — for every
schedule, not just sampled ones.

The explorer has no semantics of its own: it steps states with
:meth:`repro.vm.machine.Machine.step`, the transition function the VM
runs, and keys them by the state tuple itself (threads sorted by spawn
path, one memory slot per variable).  Output produced so far is *not*
part of the state: outcomes are composed from memoized suffixes.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, Union

from repro.errors import VMError
from repro.ir.structured import ProgramIR
from repro.obs.trace import get_tracer
from repro.vm.bytecode import VMProgram
from repro.vm.compile import compile_program
from repro.vm.machine import Machine, default_functions

__all__ = ["ExplorationResult", "explore", "find_witness", "print_outcomes"]


def print_outcomes(outcomes: Iterable[tuple]) -> frozenset:
    """Outcomes reduced to print-level classes: call events dropped,
    prints and terminal markers kept."""
    return frozenset(
        tuple(e for e in o if e[0] in ("print", "deadlock", "error", "livelock"))
        for o in outcomes
    )


class ExplorationResult:
    """All behaviours of a program."""

    def __init__(
        self, outcomes: frozenset, states: int, complete: bool
    ) -> None:
        #: frozenset of outcome tuples (see module docstring)
        self.outcomes = outcomes
        #: number of distinct machine states visited
        self.states = states
        #: False when the state budget was exhausted
        self.complete = complete

    @property
    def can_deadlock(self) -> bool:
        return any(o and o[-1] == ("deadlock",) for o in self.outcomes)

    @property
    def print_classes(self) -> int:
        """Number of distinct print-level outcome classes — the paper's
        observable-behaviour count (what sampled schedules are measured
        against in :mod:`repro.dynamic.coverage`)."""
        return len(print_outcomes(self.outcomes))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ExplorationResult(outcomes={len(self.outcomes)}, "
            f"states={self.states}, complete={self.complete})"
        )


_ON_STACK = object()
_DONE = frozenset({()})
_LIVELOCK = frozenset({(("livelock",),)})
_TRUNCATED = frozenset({(("truncated",),)})
_DEADLOCK = frozenset({(("deadlock",),)})


class _Explorer:
    """Depth-first search over machine states, stepping with
    :meth:`Machine.step`.  One memo holds both the finished states and,
    under the ``_ON_STACK`` sentinel, the states on the DFS path (a
    revisit of one is a livelock)."""

    def __init__(
        self,
        program: VMProgram,
        functions: Callable[[str, list[int]], int],
        max_states: int,
    ) -> None:
        self.machine = Machine(program, functions)
        self.step = self.machine.step
        self.runnable = self.machine.runnable
        self.max_states = max_states
        #: state → its outcome set, or _ON_STACK while the DFS is inside it
        self.memo: dict[tuple, object] = {}
        #: states whose outcome set is memoized
        self.states = 0
        self.truncated = False

    # -- DFS with memoized suffixes ---------------------------------------------

    def outcomes(self, state: tuple) -> frozenset:
        memo = self.memo
        # One hash of the state both looks it up and marks it on the
        # stack: it was known iff the memo did not grow.
        known = len(memo)
        cached = memo.setdefault(state, _ON_STACK)
        if len(memo) == known:
            return _LIVELOCK if cached is _ON_STACK else cached
        if not state[0]:
            memo[state] = _DONE
            self.states += 1
            return _DONE
        if self.states >= self.max_states:
            self.truncated = True
            del memo[state]
            return _TRUNCATED

        step = self.step
        parts = []
        for tid in self.runnable(state):
            try:
                event, next_state = step(state, tid)
            except VMError as exc:
                parts.append(frozenset({(("error", str(exc)),)}))
                continue
            suffixes = self.outcomes(next_state)
            if event is not None:
                suffixes = frozenset([(event,) + suffix for suffix in suffixes])
            parts.append(suffixes)
        if not parts:
            result = _DEADLOCK
        elif len(parts) == 1:
            result = parts[0]
        else:
            result = parts[0].union(*parts[1:])
        # Do not memoize across a truncation (partial results poison).
        if self.truncated:
            del memo[state]
        else:
            memo[state] = result
            self.states += 1
        return result


def find_witness(
    program: Union[VMProgram, ProgramIR],
    outcome: tuple,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> Optional[list[tuple]]:
    """Find a schedule (list of thread ids, in step order) whose
    observable outcome is exactly ``outcome``.

    Used to turn an equivalence-check counterexample ("the transformed
    program can print X") into a concrete replayable interleaving.
    Returns ``None`` when no schedule produces the outcome within the
    state budget.  For an ``("error", msg)`` outcome the schedule ends
    with the failing step, so its replay raises that :class:`VMError`.
    """
    if isinstance(program, ProgramIR):
        program = compile_program(program)
    machine = Machine(program, functions or default_functions)

    # Depth-first search over (state, produced-prefix) pairs.  The memo
    # keyed by (state, remaining-suffix) bounds the search.
    seen: set[tuple] = set()

    def dfs(state: tuple, remaining: tuple, schedule: list) -> Optional[list]:
        key = (state, remaining)
        if key in seen or len(seen) > max_states:
            return None
        seen.add(key)
        threads = state[0]
        if not threads:
            return list(schedule) if not remaining else None
        runnable = machine.runnable(state)
        if not runnable:
            # Terminal deadlock: matches only the deadlock marker.
            if remaining == (("deadlock",),):
                return list(schedule)
            return None
        for tid in runnable:
            try:
                event, next_state = machine.step(state, tid)
            except VMError as exc:
                # A failing step ends the schedule with the error marker.
                if remaining == (("error", str(exc)),):
                    return schedule + [tid]
                continue
            if event is None:
                next_remaining = remaining
            elif remaining and remaining[0] == event:
                next_remaining = remaining[1:]
            else:
                continue  # produced an event the outcome doesn't want
            schedule.append(tid)
            found = dfs(next_state, next_remaining, schedule)
            if found is not None:
                return found
            schedule.pop()
        return None

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    tracer = get_tracer()
    try:
        with tracer.span("find-witness", max_states=max_states) as span:
            schedule = dfs(machine.initial, tuple(outcome), [])
            span.set(
                found=schedule is not None,
                states_considered=len(seen),
                schedule_length=0 if schedule is None else len(schedule),
            )
        return schedule
    finally:
        sys.setrecursionlimit(old_limit)


def explore(
    program: Union[VMProgram, ProgramIR],
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> ExplorationResult:
    """Enumerate every schedule of ``program``.

    Intended for small programs (the state space is exponential in the
    number of concurrent statements); ``max_states`` bounds the search
    and marks the result incomplete when hit.
    """
    if isinstance(program, ProgramIR):
        program = compile_program(program)
    explorer = _Explorer(program, functions or default_functions, max_states)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    tracer = get_tracer()
    try:
        with tracer.span("explore", max_states=max_states) as span:
            outcomes = explorer.outcomes(explorer.machine.initial)
            span.set(
                states=explorer.states,
                outcomes=len(outcomes),
                complete=not explorer.truncated,
            )
    finally:
        sys.setrecursionlimit(old_limit)
    result = ExplorationResult(
        outcomes, states=explorer.states, complete=not explorer.truncated
    )
    if tracer.enabled:
        tracer.counter("explore.states").inc(explorer.states)
        tracer.counter("explore.outcomes").inc(len(outcomes))
        tracer.counter("explore.print_classes").inc(result.print_classes)
    return result

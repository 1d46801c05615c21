"""The interleaving machine: one transition function, one scheduling loop.

:class:`Machine` holds the state and :meth:`Machine.step`, the only
code that executes an instruction.  :class:`VirtualMachine` drives it
under a seeded random scheduler or a fixed schedule (replay), and
:mod:`repro.vm.explore` drives it over canonical snapshots through
:meth:`Machine.successor`.  Each program's expressions are compiled
once into closures (:func:`compile_expr`).

Semantics:

* one instruction executes atomically per step (statement-granularity
  interleaving, the paper's memory model);
* unset variables read as 0;
* ``lock`` blocks while held by another thread (non-reentrant: a thread
  re-acquiring its own lock self-deadlocks, as with a plain pthreads
  mutex);
* ``wait`` blocks until the event has been ``set`` (events are sticky:
  Set with no Clear, as in the paper);
* ``print`` and opaque call *statements* are the observable events of a
  program; calls in expression position are pure and evaluated through a
  deterministic binding (user-suppliable).

Instrumentation (:class:`VirtualMachine` only): per lock, how many
global steps it was held and how many steps threads spent blocked on
it — the metrics the LICM benchmarks report — plus the held/blocked
interval timeline.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Optional, Union

from repro.errors import DeadlockError, StepLimitExceeded, VMError
from repro.ir.expr import EBin, ECall, EConst, EUn, EVar, IRExpr
from repro.ir.structured import ProgramIR
from repro.obs.events import (
    ContextSwitch,
    LockBlockedInterval,
    LockHeldInterval,
    VMStep,
)
from repro.obs.trace import get_tracer
from repro.opt.folding import BINARY_OPS, UNARY_OPS, apply_binop, apply_unop
from repro.vm.bytecode import Op, VMProgram
from repro.vm.compile import compile_program

__all__ = [
    "Execution",
    "Machine",
    "VirtualMachine",
    "compile_expr",
    "default_functions",
    "run_random",
]

#: An expression compiled by :func:`compile_expr`: (memory, functions) → int.
Evaluator = Callable[[dict, Callable[[str, list[int]], int]], int]


def default_functions(name: str, args: list[int]) -> int:
    """Deterministic stand-in for opaque pure functions.

    Any pure deterministic binding is semantically admissible (the
    static analyses treat calls as unknown values); this one mixes the
    name and arguments so different calls give different values.
    """
    acc = sum(ord(c) for c in name) * 131
    for i, a in enumerate(args):
        acc = acc * 31 + (i + 1) * a
    return acc % 1009 - 504


def compile_expr(expr: IRExpr) -> Evaluator:
    """``expr`` as a closure over (memory, function binding).

    The closure has the semantics of
    :func:`repro.opt.folding.eval_expr_concrete`, the reference the tests
    hold it to: operands evaluate left to right with no short circuit,
    unset variables read as 0, and a fault (division by zero, an unknown
    operator) raises the same :class:`VMError` when the expression is
    evaluated, never when it is compiled.
    """
    if isinstance(expr, EConst):
        value = expr.value
        return lambda memory, functions: value
    if isinstance(expr, EVar):
        name = expr.name
        return lambda memory, functions: memory.get(name, 0)
    if isinstance(expr, ECall):
        func = expr.func
        args = [compile_expr(arg) for arg in expr.args]
        return lambda memory, functions: functions(
            func, [arg(memory, functions) for arg in args]
        )
    if isinstance(expr, EUn):
        op, operand = expr.op, compile_expr(expr.operand)
        unop = UNARY_OPS.get(op)
        if unop is None:
            return lambda memory, functions: apply_unop(op, operand(memory, functions))
        return lambda memory, functions: unop(operand(memory, functions))
    if isinstance(expr, EBin):
        op = expr.op
        binop = BINARY_OPS.get(op)
        leaves = _leaf(expr.left), _leaf(expr.right)
        if binop is not None and None not in leaves:
            (a, a0), (b, b0) = leaves
            return lambda memory, functions: binop(
                memory.get(a, a0), memory.get(b, b0)
            )
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        if binop is None:
            return lambda memory, functions: apply_binop(
                op, left(memory, functions), right(memory, functions)
            )
        return lambda memory, functions: binop(
            left(memory, functions), right(memory, functions)
        )
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def _leaf(expr: IRExpr) -> Optional[tuple[Optional[str], int]]:
    """A variable or constant operand as the memory read ``(key,
    default)`` that yields it (a constant reads the key None, which
    memory never holds); None for any other expression."""
    if isinstance(expr, EVar):
        return expr.name, 0
    if isinstance(expr, EConst):
        return None, expr.value
    return None


def _evaluators(program: VMProgram) -> list:
    """Per pc: the compiled expression of an assignment or branch, the
    compiled argument tuple of a print or call, else None."""
    table: list = []
    for instr in program.instrs:
        if instr.op is Op.ASSIGN or instr.op is Op.BRANCH:
            table.append(compile_expr(instr.expr))
        elif instr.op is Op.PRINT or instr.op is Op.CALL:
            table.append(tuple(compile_expr(e) for e in instr.exprs))
        else:
            table.append(None)
    return table


#: Thread status in a thread record ``[tid, pc, status, pending]``;
#: a finished thread's record is dropped.
RUN, JOIN, BARRIER = "r", "j", "b"


class Machine:
    """One interleaving machine state and the transition function over it.

    The state is the thread records (``tid`` → ``[tid, pc, status,
    pending]``, keyed by spawn path; ``pending`` counts a joining
    parent's unfinished children), shared memory, lock owners and the
    set events.  :meth:`step` is the only code that executes an
    instruction: :class:`VirtualMachine` drives it under a scheduler,
    and the explorer drives it from canonical :meth:`snapshot` states.
    """

    def __init__(
        self,
        program: VMProgram,
        functions: Callable[[str, list[int]], int],
    ) -> None:
        self.program = program
        self.instrs = program.instrs
        self.evaluators = program.derived("evaluators", _evaluators)
        #: per pc, the :data:`WRITES` entry of its opcode
        self.writes = program.derived(
            "writes", lambda p: [WRITES[instr.op] for instr in p.instrs]
        )
        self.functions = functions
        self.threads: dict[tuple, list] = {(): [(), program.entry, RUN, 0]}
        self.memory: dict[str, int] = {}
        self.locks: dict[str, tuple] = {}  # lock name → owner tid
        self.events_set: set[str] = set()

    def snapshot(self) -> tuple:
        """The canonical, hashable encoding of the state.

        Threads are sorted by spawn path and zero-valued variables are
        dropped (unset variables read as 0), so schedules that reach the
        same configuration share one snapshot.
        """
        threads = self.threads
        memory = tuple(sorted(self.memory.items()))
        if 0 in self.memory.values():
            memory = tuple(kv for kv in memory if kv[1] != 0)
        return (
            tuple(map(tuple, map(threads.get, sorted(threads)))),
            memory,
            tuple(sorted(self.locks.items())),
            tuple(sorted(self.events_set)),
        )

    def load(self, snapshot: tuple) -> None:
        """Make ``snapshot`` the current state."""
        threads, memory, locks, events = snapshot
        self.threads = {rec[0]: list(rec) for rec in threads}
        self.memory = dict(memory)
        self.locks = dict(locks)
        self.events_set = set(events)

    def successor(self, state: tuple, tid: tuple) -> tuple[Optional[tuple], tuple]:
        """Step ``tid`` from ``state``: (event or None, next snapshot).

        The result equals :meth:`snapshot` after :meth:`load` and
        :meth:`step`, but only the components :data:`WRITES` lists for
        the opcode are re-encoded; the others are shared with ``state``.
        The thread records keep their sorted order unless a ``cobegin``
        adds some, and an assignment changes one memory entry.
        """
        self.load(state)
        _, memory, locks, events = state
        records = self.threads
        pc = records[tid][1]
        written = self.writes[pc]
        event = self.step(tid)
        return event, (
            tuple(map(tuple, map(records.get, sorted(records))))
            if written & SPAWN
            else tuple(map(tuple, records.values())),
            _assigned(memory, self.memory, self.instrs[pc].name)
            if written & MEMORY
            else memory,
            tuple(sorted(self.locks.items())) if written & LOCKS else locks,
            tuple(sorted(self.events_set)) if written & EVENTS else events,
        )

    def runnable(self, rec) -> bool:
        """Can the thread with record ``rec`` take a step now?"""
        if rec[2] != RUN:
            return False
        instr = self.instrs[rec[1]]
        if instr.op is Op.LOCK:
            return instr.name not in self.locks
        if instr.op is Op.WAIT:
            return instr.name in self.events_set
        return True

    def step(self, tid: tuple) -> Optional[tuple]:
        """Execute one instruction of the runnable thread ``tid``.

        Returns the observable event (``("print", values)`` or
        ``("call", name, values)``) or None; raises :class:`VMError`
        for an unlock by a thread that does not own the lock.
        """
        rec = self.threads[tid]
        pc = rec[1]
        instr = self.instrs[pc]
        op = instr.op
        event: Optional[tuple] = None
        if op is Op.ASSIGN:
            memory = self.memory
            memory[instr.name] = self.evaluators[pc](memory, self.functions)
            rec[1] += 1
        elif op is Op.PRINT:
            event = ("print", self._eval_args(pc))
            rec[1] += 1
        elif op is Op.CALL:
            event = ("call", instr.name, self._eval_args(pc))
            rec[1] += 1
        elif op is Op.LOCK:
            if instr.name in self.locks:  # pragma: no cover - defensive
                raise VMError("scheduled a blocked lock acquire")
            self.locks[instr.name] = tid
            rec[1] += 1
        elif op is Op.UNLOCK:
            owner = self.locks.get(instr.name)
            if owner != tid:
                raise VMError(f"unlock({instr.name}) by {tid} but owner is {owner}")
            del self.locks[instr.name]
            rec[1] += 1
        elif op is Op.SET:
            self.events_set.add(instr.name)
            rec[1] += 1
        elif op is Op.WAIT:
            if instr.name not in self.events_set:  # pragma: no cover - defensive
                raise VMError("scheduled a blocked wait")
            rec[1] += 1
        elif op is Op.BARRIER:
            waiting = [
                other for other in self.threads.values()
                if other[2] == BARRIER and self.instrs[other[1]].name == instr.name
            ]
            if len(waiting) + 1 >= (instr.target or 1):
                for other in waiting:
                    other[2] = RUN
                    other[1] += 1
                rec[1] += 1
            else:
                rec[2] = BARRIER
        elif op is Op.JUMP:
            rec[1] = instr.target
        elif op is Op.BRANCH:
            taken = self.evaluators[pc](self.memory, self.functions) != 0
            rec[1] = pc + 1 if taken else instr.target
        elif op is Op.COBEGIN:
            rec[1] = instr.target
            rec[2] = JOIN
            rec[3] = len(instr.entries)
            for i, entry in enumerate(instr.entries):
                child = tid + (i,)
                self.threads[child] = [child, entry, RUN, 0]
        elif op is Op.END_THREAD:
            del self.threads[tid]
            parent = self.threads[tid[:-1]]
            parent[3] -= 1
            if parent[3] == 0:
                parent[2] = RUN
        elif op is Op.HALT:
            del self.threads[tid]
        else:  # pragma: no cover - defensive
            raise VMError(f"unknown instruction {instr!r}")
        return event

    def _eval_args(self, pc: int) -> tuple:
        memory, functions = self.memory, self.functions
        return tuple(arg(memory, functions) for arg in self.evaluators[pc])


_NAME = itemgetter(0)


def _assigned(encoded: tuple, memory: dict, name: str) -> tuple:
    """The memory encoding ``encoded`` after an assignment to ``name``,
    whose new value ``memory`` holds: one entry replaced, inserted or
    (for 0) dropped, so the result stays sorted and zero-free."""
    i = bisect_left(encoded, name, key=_NAME)
    j = i + 1 if i < len(encoded) and encoded[i][0] == name else i
    value = memory[name]
    entry = ((name, value),) if value else ()
    return encoded[:i] + entry + encoded[j:]

#: The snapshot components an opcode's step can change besides the
#: stepping thread's record (:meth:`Machine.successor` re-encodes only
#: these); SPAWN marks the one step that adds thread records.
MEMORY, LOCKS, EVENTS, SPAWN = 1, 2, 4, 8
WRITES: dict[Op, int] = {
    **{op: 0 for op in Op},
    Op.ASSIGN: MEMORY,
    Op.LOCK: LOCKS,
    Op.UNLOCK: LOCKS,
    Op.SET: EVENTS,
    Op.COBEGIN: SPAWN,
}


class Execution:
    """The observable result of one run."""

    def __init__(self) -> None:
        #: sequence of ("print", values) / ("call", name, values) events
        self.events: list[tuple] = []
        self.steps = 0
        self.deadlocked = False
        #: lock name → total global steps the lock was held
        self.lock_held_steps: dict[str, int] = {}
        #: lock name → total steps threads spent blocked on it
        self.lock_blocked_steps: dict[str, int] = {}
        #: lock name → number of successful acquisitions
        self.lock_acquisitions: dict[str, int] = {}
        #: per-lock contention timeline: dicts with ``kind`` ("held" |
        #: "blocked"), ``lock``, ``tid`` (spawn-path tuple), ``from``/
        #: ``to`` global steps, and ``open`` (True when the interval was
        #: still running at run end — the deadlock signature)
        self.lock_intervals: list[dict] = []
        #: final shared memory
        self.memory: dict[str, int] = {}

    @property
    def printed(self) -> list[tuple]:
        return [e[1] for e in self.events if e[0] == "print"]

    def output_key(self) -> tuple:
        """Canonical observable outcome (for set comparisons)."""
        suffix: tuple = (("deadlock",),) if self.deadlocked else ()
        return tuple(self.events) + suffix

    def __repr__(self) -> str:  # pragma: no cover
        return f"Execution(events={len(self.events)}, steps={self.steps})"


class VirtualMachine(Machine):
    """Runs a compiled program under a seeded random scheduler.

    Lock accounting, the happens-before hooks and tracer events wrap
    :meth:`Machine.step`; the explorer drives the bare step.
    """

    def __init__(
        self,
        program: Union[VMProgram, ProgramIR],
        seed: int = 0,
        functions: Optional[Callable[[str, list[int]], int]] = None,
        fuel: int = 1_000_000,
        hb: Optional[object] = None,
    ) -> None:
        if isinstance(program, ProgramIR):
            program = compile_program(program)
        super().__init__(program, functions or default_functions)
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.execution = Execution()
        #: the tracer in effect at construction time; with the default
        #: no-op tracer every hook below is one attribute read + branch
        self.tracer = get_tracer()
        #: optional happens-before tracker (repro.dynamic.hb.HBTracker);
        #: None keeps the default path at one attribute read + branch
        self.hb = hb
        self._last_tid: Optional[tuple] = None
        self._acquired_at: dict[str, int] = {}  # lock → step of acquisition
        self._blocked_since: dict[tuple, int] = {}  # (lock, tid) → step

    # -- the scheduling loop -------------------------------------------------

    def run(self, raise_on_deadlock: bool = True) -> Execution:
        """Execute to completion (or deadlock / fuel exhaustion)."""
        rng = self.rng
        ex = self.execution
        threads = self.threads
        runnable = self.runnable

        def pick() -> Optional[tuple]:
            ready = sorted(tid for tid, rec in threads.items() if runnable(rec))
            if not ready:
                return None
            if ex.steps >= self.fuel:
                raise StepLimitExceeded(self.fuel)
            return rng.choice(ready)

        self._loop(pick)
        if ex.deadlocked and raise_on_deadlock:
            blocked = {rec[0] for rec in threads.values() if rec[2] != JOIN}
            raise DeadlockError(blocked, self.locks)
        return ex

    def replay(self, schedule: list[tuple]) -> Execution:
        """Execute a fixed schedule (list of thread ids per step).

        Used together with :func:`repro.vm.explore.find_witness` to make
        a specific interleaving reproducible.  Raises :class:`VMError`
        when the schedule names a thread that is not runnable (or does
        not exist) at that step, and re-raises the :class:`VMError` of a
        failing step.
        """
        tids = iter(schedule)

        def runnable_tid(tid) -> tuple:
            rec = self.threads.get(tuple(tid))
            if rec is None or not self.runnable(rec):
                raise VMError(
                    f"thread {tid!r} is not runnable at step {self.execution.steps}"
                )
            return rec[0]

        def pick() -> Optional[tuple]:
            tid = next(tids, None)
            return None if tid is None else runnable_tid(tid)

        self._loop(pick)
        extra = next(tids, None)
        if extra is not None:
            runnable_tid(extra)  # every thread has finished: raises
        return self.execution

    def _loop(self, pick: Callable[[], Optional[tuple]]) -> None:
        """Step the runnable thread ``pick`` names until every thread is
        done or ``pick`` returns None; then close the execution, which
        deadlocked if live threads remain and none can run."""
        ex = self.execution
        threads = self.threads
        while threads:
            tid = pick()
            if tid is None:
                break
            self._account_lock_time()
            self._execute(tid)
            ex.steps += 1
        ex.deadlocked = bool(threads) and not any(
            self.runnable(rec) for rec in threads.values()
        )
        ex.memory = dict(self.memory)
        self._flush_intervals()

    # -- instrumentation around the step ------------------------------------

    def _execute(self, tid: tuple) -> None:
        """:meth:`Machine.step` plus lock accounting, hooks and events."""
        rec = self.threads[tid]
        instr = self.instrs[rec[1]]
        op = instr.op
        hb = self.hb
        tracer = self.tracer
        if hb is not None:
            hb.on_step(tid, rec[1], instr)
            if op is Op.BARRIER:
                waiting = [t for t, r in self.threads.items() if r[2] == BARRIER]
        if tracer.enabled:
            steps = self.execution.steps
            if self._last_tid is not None and self._last_tid != tid:
                tracer.event(ContextSwitch(steps, self._last_tid, tid))
                tracer.counter("vm.context_switches").inc()
            self._last_tid = tid
            tracer.event(VMStep(steps, tid, op.name))
            tracer.counter("vm.steps").inc()
        event = self.step(tid)
        if event is not None:
            self.execution.events.append(event)
        elif op is Op.LOCK:
            self._on_acquire(instr.name, tid)
        elif op is Op.UNLOCK:
            self._on_release(instr.name, tid)
        elif hb is not None and op is Op.COBEGIN:
            hb.on_spawn(tid, tuple(tid + (i,) for i in range(len(instr.entries))))
        elif hb is not None and op is Op.END_THREAD:
            hb.on_thread_end(tid, tid[:-1])
        elif hb is not None and op is Op.BARRIER and rec[2] == RUN:
            # the step released the barrier: so did every waiter at it
            released = [t for t in waiting if self.threads[t][2] == RUN]
            hb.on_barrier_release(instr.name, released + [tid])

    def _on_acquire(self, lock: str, tid: tuple) -> None:
        ex = self.execution
        ex.lock_acquisitions[lock] = ex.lock_acquisitions.get(lock, 0) + 1
        self._acquired_at[lock] = ex.steps
        blocked_since = self._blocked_since.pop((lock, tid), None)
        if blocked_since is not None:
            self._close_interval("blocked", lock, tid, blocked_since)
        if self.tracer.enabled:
            self.tracer.counter(f"vm.lock_acquisitions.{lock}").inc()

    def _on_release(self, lock: str, tid: tuple) -> None:
        acquired_at = self._acquired_at.pop(lock, 0)
        self._close_interval("held", lock, tid, acquired_at)
        if self.tracer.enabled:
            held = self.execution.steps - acquired_at
            self.tracer.histogram(f"vm.lock_hold_steps.{lock}").observe(held)

    def _close_interval(
        self, kind: str, lock: str, tid: tuple, since: int, open: bool = False
    ) -> None:
        """Record one held/blocked interval ending now, and trace it."""
        steps = self.execution.steps
        self.execution.lock_intervals.append(
            {
                "kind": kind,
                "lock": lock,
                "tid": tid,
                "from": since,
                "to": steps,
                "open": open,
            }
        )
        if self.tracer.enabled:
            cls = LockHeldInterval if kind == "held" else LockBlockedInterval
            self.tracer.event(cls(lock, tid, since, steps, open))

    def _flush_intervals(self) -> None:
        """Close still-open hold/blocked intervals at run end.

        An interval open at termination (a lock held across a deadlock,
        a thread still blocked) is recorded and traced with
        ``open=True``, so the timeline is a complete account of the run.
        """
        for lock, since in sorted(self._acquired_at.items()):
            self._close_interval("held", lock, self.locks.get(lock, ()), since, True)
        self._acquired_at.clear()
        for (lock, tid), since in sorted(self._blocked_since.items()):
            self._close_interval("blocked", lock, tid, since, True)
        self._blocked_since.clear()

    def _account_lock_time(self) -> None:
        ex = self.execution
        tracer = self.tracer
        for lock_name in self.locks:
            ex.lock_held_steps[lock_name] = ex.lock_held_steps.get(lock_name, 0) + 1
        for rec in self.threads.values():
            if rec[2] != RUN:
                continue
            instr = self.instrs[rec[1]]
            if instr.op is Op.LOCK and instr.name in self.locks:
                ex.lock_blocked_steps[instr.name] = (
                    ex.lock_blocked_steps.get(instr.name, 0) + 1
                )
                self._blocked_since.setdefault((instr.name, rec[0]), ex.steps)
                if tracer.enabled:
                    tracer.counter(f"vm.lock_blocked_steps.{instr.name}").inc()


def run_random(
    program: Union[VMProgram, ProgramIR],
    seed: int = 0,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    fuel: int = 1_000_000,
    raise_on_deadlock: bool = True,
    hb: Optional[object] = None,
) -> Execution:
    """Compile (if needed) and run once under the given seed.

    ``hb`` attaches a :class:`repro.dynamic.hb.HBTracker` for
    happens-before tracking and online race detection.
    """
    vm = VirtualMachine(program, seed=seed, functions=functions, fuel=fuel, hb=hb)
    return vm.run(raise_on_deadlock=raise_on_deadlock)

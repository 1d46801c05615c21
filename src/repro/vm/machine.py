"""The interleaving machine: one immutable state, one transition function.

A machine state is one hashable tuple ``(threads, memory, locks,
events)``:

* ``threads``: thread records ``(tid, pc, status, pending)`` sorted by
  spawn path (``pending`` counts a joining parent's unfinished
  children; a finished thread's record is dropped);
* ``memory``: one value per variable slot, the program's variables
  sorted by name, 0 when unset;
* ``locks``: per lock slot (lock names sorted), the owner's tid or None;
* ``events``: per event slot (event names sorted), whether it is set.

Equal configurations are equal tuples, so the state is its own
canonical snapshot.  :meth:`Machine.step` is the only code that executes
an instruction: it maps a state and a thread to the observable event
and the next state, rebuilding only the component the opcode writes.
:class:`VirtualMachine` drives it under a seeded random scheduler or a
fixed schedule (replay), and :mod:`repro.vm.explore` drives it over
every schedule.  Each program's expressions are compiled once into
closures over the memory tuple (:func:`compile_expr`).

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
from typing import Callable, Optional, Union

from repro.errors import DeadlockError, StepLimitExceeded, VMError
from repro.ir.expr import EBin, ECall, EConst, EUn, EVar, IRExpr, iter_expr_vars
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
Evaluator = Callable[[tuple, Callable[[str, list[int]], int]], int]


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


def compile_expr(expr: IRExpr, slots: dict[str, int]) -> Evaluator:
    """``expr`` as a closure over (memory tuple, function binding); a
    variable reads ``memory[slots[name]]``.

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
        slot = slots[expr.name]
        return lambda memory, functions: memory[slot]
    if isinstance(expr, ECall):
        func = expr.func
        args = [compile_expr(arg, slots) for arg in expr.args]
        return lambda memory, functions: functions(
            func, [arg(memory, functions) for arg in args]
        )
    if isinstance(expr, EUn):
        op, operand = expr.op, compile_expr(expr.operand, slots)
        unop = UNARY_OPS.get(op)
        if unop is None:
            return lambda memory, functions: apply_unop(op, operand(memory, functions))
        return lambda memory, functions: unop(operand(memory, functions))
    if isinstance(expr, EBin):
        op, left, right = expr.op, expr.left, expr.right
        binop = BINARY_OPS.get(op)
        if binop is not None and isinstance(left, EVar):
            a = slots[left.name]
            if isinstance(right, EVar):
                b = slots[right.name]
                return lambda memory, functions: binop(memory[a], memory[b])
            if isinstance(right, EConst):
                b = right.value
                return lambda memory, functions: binop(memory[a], b)
        if binop is not None and isinstance(left, EConst) and isinstance(right, EVar):
            a, b = left.value, slots[right.name]
            return lambda memory, functions: binop(a, memory[b])
        lhs, rhs = compile_expr(left, slots), compile_expr(right, slots)
        if binop is None:
            return lambda memory, functions: apply_binop(
                op, lhs(memory, functions), rhs(memory, functions)
            )
        return lambda memory, functions: binop(
            lhs(memory, functions), rhs(memory, functions)
        )
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


#: Thread status in a thread record ``(tid, pc, status, pending)``.
RUN, JOIN, BARRIER = "r", "j", "b"


class _Layout:
    """A program's slot maps and per-pc tables, built once per program
    (:meth:`VMProgram.derived`)."""

    def __init__(self, program: VMProgram) -> None:
        names: set[str] = set()
        locks: set[str] = set()
        events: set[str] = set()
        for instr in program.instrs:
            op = instr.op
            if op is Op.ASSIGN:
                names.add(instr.name)
            if op in (Op.LOCK, Op.UNLOCK):
                locks.add(instr.name)
            elif op in (Op.SET, Op.WAIT):
                events.add(instr.name)
            for expr in [instr.expr] if instr.expr is not None else instr.exprs or ():
                names.update(var.name for var in iter_expr_vars(expr))
        #: variable names in slot order
        self.variables = tuple(sorted(names))
        #: lock and event names in slot order
        self.locks = tuple(sorted(locks))
        self.events = tuple(sorted(events))
        var_slot = {name: i for i, name in enumerate(self.variables)}
        lock_slot = {name: i for i, name in enumerate(self.locks)}
        event_slot = {name: i for i, name in enumerate(self.events)}
        #: per pc: the memory, lock or event slot its instruction names
        self.slots: list[Optional[int]] = []
        #: per pc: the compiled expression of an assignment or branch, the
        #: compiled argument tuple of a print or call, else None
        self.evaluators: list = []
        #: per pc: None, or what a thread at it waits for: (True, lock
        #: slot) until the lock is free, (False, event slot) until set
        self.gates: list[Optional[tuple[bool, int]]] = []
        for instr in program.instrs:
            op = instr.op
            slot = gate = evaluator = None
            if op is Op.ASSIGN:
                slot = var_slot[instr.name]
            elif op in (Op.LOCK, Op.UNLOCK):
                slot = lock_slot[instr.name]
                gate = (True, slot) if op is Op.LOCK else None
            elif op in (Op.SET, Op.WAIT):
                slot = event_slot[instr.name]
                gate = (False, slot) if op is Op.WAIT else None
            if op is Op.ASSIGN or op is Op.BRANCH:
                evaluator = compile_expr(instr.expr, var_slot)
            elif op is Op.PRINT or op is Op.CALL:
                evaluator = tuple(compile_expr(e, var_slot) for e in instr.exprs)
            self.slots.append(slot)
            self.evaluators.append(evaluator)
            self.gates.append(gate)
        self.initial = (
            (((), program.entry, RUN, 0),),
            (0,) * len(self.variables),
            (None,) * len(self.locks),
            (False,) * len(self.events),
        )


class Machine:
    """The transition function over one program's machine states (see
    the module docstring for the state layout).

    :meth:`step` is the only code that executes an instruction:
    :class:`VirtualMachine` drives it under a scheduler, and the
    explorer drives it over every schedule from :attr:`initial`.
    """

    def __init__(
        self,
        program: VMProgram,
        functions: Callable[[str, list[int]], int],
    ) -> None:
        layout = program.derived("machine", _Layout)
        self.program = program
        self.instrs = program.instrs
        self.layout = layout
        self.slots = layout.slots
        self.evaluators = layout.evaluators
        self.gates = layout.gates
        self.functions = functions
        #: the state before the first step
        self.initial: tuple = layout.initial

    def runnable(self, state: tuple) -> list[tuple]:
        """The tids of ``state``'s threads that can take a step, in
        spawn-path order."""
        _, _, locks, events = state
        gates = self.gates
        ready = []
        for rec in state[0]:
            if rec[2] == RUN:
                gate = gates[rec[1]]
                if gate is None or (
                    locks[gate[1]] is None if gate[0] else events[gate[1]]
                ):
                    ready.append(rec[0])
        return ready

    def step(self, state: tuple, tid: tuple) -> tuple[Optional[tuple], tuple]:
        """Execute one instruction of the runnable thread ``tid``:
        (observable event or None, next state).

        The event is ``("print", values)`` or ``("call", name, values)``.
        Components the opcode does not write are shared with ``state``.
        Raises :class:`VMError` for a faulting expression or an unlock by
        a thread that does not own the lock.
        """
        threads, memory, locks, events = state
        i = 0
        while threads[i][0] != tid:
            i += 1
        pc = threads[i][1]
        instr = self.instrs[pc]
        op = instr.op
        event: Optional[tuple] = None
        next_pc = pc + 1
        if op is Op.ASSIGN:
            slot = self.slots[pc]
            value = self.evaluators[pc](memory, self.functions)
            if memory[slot] != value:
                memory = memory[:slot] + (value,) + memory[slot + 1:]
        elif op is Op.PRINT:
            functions = self.functions
            event = ("print", tuple(arg(memory, functions) for arg in self.evaluators[pc]))
        elif op is Op.CALL:
            functions = self.functions
            event = (
                "call",
                instr.name,
                tuple(arg(memory, functions) for arg in self.evaluators[pc]),
            )
        elif op is Op.LOCK:
            slot = self.slots[pc]
            if locks[slot] is not None:  # pragma: no cover - defensive
                raise VMError("scheduled a blocked lock acquire")
            locks = locks[:slot] + (tid,) + locks[slot + 1:]
        elif op is Op.UNLOCK:
            slot = self.slots[pc]
            owner = locks[slot]
            if owner != tid:
                raise VMError(f"unlock({instr.name}) by {tid} but owner is {owner}")
            locks = locks[:slot] + (None,) + locks[slot + 1:]
        elif op is Op.SET:
            slot = self.slots[pc]
            if not events[slot]:
                events = events[:slot] + (True,) + events[slot + 1:]
        elif op is Op.WAIT:
            if not events[self.slots[pc]]:  # pragma: no cover - defensive
                raise VMError("scheduled a blocked wait")
        elif op is Op.BARRIER:
            waiting = [
                k for k, other in enumerate(threads)
                if other[2] == BARRIER and self.instrs[other[1]].name == instr.name
            ]
            if len(waiting) + 1 < (instr.target or 1):
                record = (tid, pc, BARRIER, 0)
                return None, (
                    threads[:i] + (record,) + threads[i + 1:], memory, locks, events
                )
            released = list(threads)
            for k in waiting:
                other = released[k]
                released[k] = (other[0], other[1] + 1, RUN, other[3])
            released[i] = (tid, next_pc, RUN, 0)
            return None, (tuple(released), memory, locks, events)
        elif op is Op.JUMP:
            next_pc = instr.target
        elif op is Op.BRANCH:
            if self.evaluators[pc](memory, self.functions) == 0:
                next_pc = instr.target
        elif op is Op.COBEGIN:
            # A child's spawn path sorts right after its parent's.
            spawned = ((tid, instr.target, JOIN, len(instr.entries)),) + tuple(
                (tid + (k,), entry, RUN, 0) for k, entry in enumerate(instr.entries)
            )
            return None, (threads[:i] + spawned + threads[i + 1:], memory, locks, events)
        elif op is Op.END_THREAD:
            # The parent's spawn path is a prefix, so it sorts earlier.
            j = i - 1
            while threads[j][0] != tid[:-1]:
                j -= 1
            parent = threads[j]
            pending = parent[3] - 1
            joined = (parent[0], parent[1], RUN if pending == 0 else parent[2], pending)
            return None, (
                threads[:j] + (joined,) + threads[j + 1:i] + threads[i + 1:],
                memory,
                locks,
                events,
            )
        elif op is Op.HALT:
            return None, (threads[:i] + threads[i + 1:], memory, locks, events)
        else:  # pragma: no cover - defensive
            raise VMError(f"unknown instruction {instr!r}")
        record = (tid, next_pc, RUN, 0)
        return event, (threads[:i] + (record,) + threads[i + 1:], memory, locks, events)


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
        #: the current machine state
        self.state = self.initial
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.execution = Execution()
        #: the tracer in effect at construction time; with the default
        #: no-op tracer every hook below is one attribute read + branch
        self.tracer = get_tracer()
        #: optional happens-before tracker (repro.dynamic.hb.HBTracker);
        #: None keeps the default path at one attribute read + branch
        self.hb = hb
        #: held lock → owner tid, in acquisition order
        self.locks: dict[str, tuple] = {}
        #: memory slots assigned so far, in first-assignment order
        self._written: dict[int, None] = {}
        self._last_tid: Optional[tuple] = None
        self._acquired_at: dict[str, int] = {}  # lock → step of acquisition
        self._blocked_since: dict[tuple, int] = {}  # (lock, tid) → step

    # -- the scheduling loop -------------------------------------------------

    def run(self, raise_on_deadlock: bool = True) -> Execution:
        """Execute to completion (or deadlock / fuel exhaustion)."""
        rng = self.rng
        ex = self.execution

        def pick() -> Optional[tuple]:
            ready = self.runnable(self.state)
            if not ready:
                return None
            if ex.steps >= self.fuel:
                raise StepLimitExceeded(self.fuel)
            return rng.choice(ready)

        self._loop(pick)
        if ex.deadlocked and raise_on_deadlock:
            blocked = {rec[0] for rec in self.state[0] if rec[2] != JOIN}
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
            tid = tuple(tid)
            if tid not in self.runnable(self.state):
                raise VMError(
                    f"thread {tid!r} is not runnable at step {self.execution.steps}"
                )
            return tid

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
        while self.state[0]:
            tid = pick()
            if tid is None:
                break
            self._account_lock_time()
            self._execute(tid)
            ex.steps += 1
        ex.deadlocked = bool(self.state[0]) and not self.runnable(self.state)
        memory, variables = self.state[1], self.layout.variables
        ex.memory = {variables[slot]: memory[slot] for slot in self._written}
        self._flush_intervals()

    # -- instrumentation around the step ------------------------------------

    def _execute(self, tid: tuple) -> None:
        """:meth:`Machine.step` plus lock accounting, hooks and events."""
        threads = self.state[0]
        for rec in threads:
            if rec[0] == tid:
                pc = rec[1]
                break
        instr = self.instrs[pc]
        op = instr.op
        hb = self.hb
        tracer = self.tracer
        if hb is not None:
            hb.on_step(tid, pc, instr)
            if op is Op.BARRIER:
                waiting = [rec[0] for rec in threads if rec[2] == BARRIER]
        if tracer.enabled:
            steps = self.execution.steps
            if self._last_tid is not None and self._last_tid != tid:
                tracer.event(ContextSwitch(steps, self._last_tid, tid))
                tracer.counter("vm.context_switches").inc()
            self._last_tid = tid
            tracer.event(VMStep(steps, tid, op.name))
            tracer.counter("vm.steps").inc()
        event, self.state = self.step(self.state, tid)
        if event is not None:
            self.execution.events.append(event)
        elif op is Op.ASSIGN:
            self._written[self.slots[pc]] = None
        elif op is Op.LOCK:
            self._on_acquire(instr.name, tid)
        elif op is Op.UNLOCK:
            self._on_release(instr.name, tid)
        elif hb is not None and op is Op.COBEGIN:
            hb.on_spawn(tid, tuple(tid + (i,) for i in range(len(instr.entries))))
        elif hb is not None and op is Op.END_THREAD:
            hb.on_thread_end(tid, tid[:-1])
        elif hb is not None and op is Op.BARRIER:
            status = {rec[0]: rec[2] for rec in self.state[0]}
            if status[tid] == RUN:
                # the step released the barrier: so did every waiter at it
                released = [t for t in waiting if status[t] == RUN]
                hb.on_barrier_release(instr.name, released + [tid])

    def _on_acquire(self, lock: str, tid: tuple) -> None:
        ex = self.execution
        self.locks[lock] = tid
        ex.lock_acquisitions[lock] = ex.lock_acquisitions.get(lock, 0) + 1
        self._acquired_at[lock] = ex.steps
        blocked_since = self._blocked_since.pop((lock, tid), None)
        if blocked_since is not None:
            self._close_interval("blocked", lock, tid, blocked_since)
        if self.tracer.enabled:
            self.tracer.counter(f"vm.lock_acquisitions.{lock}").inc()

    def _on_release(self, lock: str, tid: tuple) -> None:
        del self.locks[lock]
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
        locks = self.locks
        if not locks:
            return
        for lock_name in locks:
            ex.lock_held_steps[lock_name] = ex.lock_held_steps.get(lock_name, 0) + 1
        for rec in self.state[0]:
            if rec[2] != RUN:
                continue
            instr = self.instrs[rec[1]]
            if instr.op is Op.LOCK and instr.name in locks:
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

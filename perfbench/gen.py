"""The benchmark's own seeded input generator (frozen).

This generator belongs to the benchmark, not to ``repro.synth``: a
change to the package's generator must never change the inputs on one
side of a parent/change comparison.  Do not edit it; a new input shape
is a new :class:`Shape`, and the tests pin the sha256 of every
workload's seed-0 inputs.

Two knobs set a program's cost independently:

* ``size`` — assignment statements, summed over threads.  Post-SSA IR
  statements grow linearly with it: an assignment lowers to one
  statement, and φ/π terms add a bounded number per statement.
* ``Shape.shared`` — the share of assignments that touch a shared
  variable.  π conflict arguments grow with the square of the shared
  accesses, so this knob moves a program between the sparse and the
  contended regime at a fixed size.

Every share is applied exactly (a seeded shuffle of a list holding the
right number of each kind), not drawn slot by slot, so two keys of one
shape differ in names and constants but hardly in structure; that keeps
a workload's cost steady across seeds.

Guarantees: locks never nest and are always matched, so no program can
deadlock and every critical section is a mutex body; there are no
loops, so every program terminates (the explorer needs that); only
``+`` and ``-`` occur, so values stay small; with ``Shape.race_free``
every shared variable is touched only inside critical sections of its
one protecting lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Shape", "generate"]

#: assignment statements per segment (one critical section or plain run)
SEGMENT = 5
LOCKS = ("LK0", "LK1")
#: share of segments wrapped in an ``if`` on a private variable
BRANCH = 0.2


@dataclass(frozen=True)
class Shape:
    """Structure of a generated program: everything but its size."""

    threads: int = 2
    shared_vars: int = 6
    #: private variables per thread
    privates: int = 4
    #: share of segments that are critical sections
    critical: float = 0.6
    #: share of assignments that read or write a shared variable
    shared: float = 0.5
    #: operands on every assignment's right-hand side
    operands: int = 2
    #: shared variables only ever touched under their protecting lock
    race_free: bool = False


def _exact(rng: random.Random, count: int, share: float) -> list[bool]:
    """``count`` flags, exactly ``round(share * count)`` of them true."""
    hits = round(share * count)
    flags = [True] * hits + [False] * (count - hits)
    rng.shuffle(flags)
    return flags


class _Thread:
    def __init__(self, rng: random.Random, shape: Shape, index: int) -> None:
        self.rng = rng
        self.shape = shape
        self.privates = [f"p{index}_{i}" for i in range(shape.privates)]
        self.shared = [f"s{i}" for i in range(shape.shared_vars)]

    def _operand(self) -> str:
        if self.rng.random() < 0.25:
            return str(self.rng.randint(1, 9))
        return self.rng.choice(self.privates)

    def _touchable(self, lock: str | None) -> list[str]:
        """Shared variables an assignment under ``lock`` may touch."""
        if not self.shape.race_free:
            return self.shared
        return [v for i, v in enumerate(self.shared) if LOCKS[i % len(LOCKS)] == lock]

    def assignment(self, touches_shared: bool, lock: str | None) -> str:
        rng = self.rng
        shared = self._touchable(lock)
        if not touches_shared or not shared:
            target, first = rng.choice(self.privates), self._operand()
        elif rng.random() < 0.5:
            target, first = rng.choice(shared), rng.choice(self.privates + shared)
        else:
            target, first = rng.choice(self.privates), rng.choice(shared)
        terms = [first]
        for _ in range(self.shape.operands - 1):
            terms += [rng.choice(("+", "-")), self._operand()]
        return f"{target} = {' '.join(terms)};"

    def body(self, statements: int) -> list[str]:
        rng = self.rng
        segments = max(1, statements // SEGMENT)
        critical = _exact(rng, segments, self.shape.critical)
        branch = _exact(rng, segments, BRANCH)
        touches = _exact(rng, segments * SEGMENT, self.shape.shared)
        lines: list[str] = []
        for seg in range(segments):
            lock = rng.choice(LOCKS) if critical[seg] else None
            stmts = [
                self.assignment(touches[seg * SEGMENT + k], lock)
                for k in range(SEGMENT)
            ]
            if branch[seg]:
                op = rng.choice(("<", ">", "!="))
                cond = f"{rng.choice(self.privates)} {op} {rng.randint(0, 9)}"
                stmts = [f"if ({cond}) {{", *("    " + s for s in stmts), "}"]
            if lock is not None:
                stmts = [f"lock({lock});", *("    " + s for s in stmts), f"unlock({lock});"]
            lines.extend(stmts)
        return lines


def generate(key: str, shape: Shape, size: int) -> str:
    """Source text of one program; the same arguments give the same text.

    ``key`` seeds the generator (a string, so the stream does not depend
    on ``PYTHONHASHSEED``); ``size`` counts assignment statements over
    all threads, rounded down to whole segments per thread.
    """
    rng = random.Random(f"perfbench:{key}")
    lines = [f"s{i} = {rng.randint(0, 9)};" for i in range(shape.shared_vars)]
    lines.append("cobegin")
    for t in range(shape.threads):
        thread = _Thread(rng, shape, t)
        lines.append(f"T{t}: begin")
        lines += [f"    private {p} = {rng.randint(0, 9)};" for p in thread.privates]
        lines += ["    " + line for line in thread.body(size // shape.threads)]
        lines.append("end")
    lines.append("coend")
    lines.append(f"print({', '.join(f's{i}' for i in range(shape.shared_vars))});")
    return "\n".join(lines) + "\n"

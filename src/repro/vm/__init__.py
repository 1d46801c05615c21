"""Interleaving virtual machine.

The authors ran their transformed C programs natively; our equivalent
testbed is a small VM with exactly the paper's memory model: a shared
address space with sequentially consistent interleaving at statement
granularity (every statement reads its operands and writes its target
atomically).

* :mod:`repro.vm.bytecode` / :mod:`repro.vm.compile` — flatten the
  structured IR into a PC-based instruction array (``cobegin`` spawns
  child threads; the parent joins).  SSA-form programs execute directly:
  φ terms are no-ops and π terms are copies, which is precisely the
  conventional-SSA runtime meaning.
* :mod:`repro.vm.machine` — the one transition function
  (``Machine.step``) and a seeded random scheduler / replay loop around
  it with fuel, deadlock detection, and per-lock hold-time
  instrumentation (used to measure what LICM buys).
* :mod:`repro.vm.explore` — an exhaustive interleaving explorer (a tiny
  model checker with state memoization) that steps the same machine
  and enumerates *every* reachable output sequence of a small program;
  the verification suite uses it to prove optimizations preserve the
  full behaviour set.
"""

from repro.vm.bytecode import Instr, Op, VMProgram
from repro.vm.compile import compile_program
from repro.vm.machine import Execution, VirtualMachine, run_random
from repro.vm.explore import ExplorationResult, explore, find_witness

__all__ = [
    "ExplorationResult",
    "Execution",
    "Instr",
    "Op",
    "VMProgram",
    "VirtualMachine",
    "compile_program",
    "explore",
    "find_witness",
    "run_random",
]

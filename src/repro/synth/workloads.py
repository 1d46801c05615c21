"""Named workload families for examples, tests and benchmarks."""

from __future__ import annotations

from repro.ir.lower import lower_program
from repro.ir.structured import ProgramIR
from repro.lang.parser import parse

__all__ = [
    "bank_accounts",
    "event_pipeline",
    "licm_padding",
    "lock_density_sweep",
    "paper_figure1",
    "paper_figure1_source",
    "paper_figure2",
    "paper_figure2_source",
    "shared_counters",
]


def _program(source: str) -> ProgramIR:
    return lower_program(parse(source))


#: the paper's Figure 1 and Figure 2 programs, verbatim: tests pin
#: line/column positions and source keys against this exact text
_FIGURE1_SOURCE = """
a = 1;
b = 2;
cobegin
T0: begin
    lock(L);
    a = a + b;
    unlock(L);
end
T1: begin
    f(a);
    lock(L);
    a = 3;
    b = b + g(a);
    unlock(L);
end
coend
print(a, b);
"""

_FIGURE2_SOURCE = """
a = 0;
b = 0;
cobegin
T0: begin
    lock(L);
    a = 5;
    b = a + 3;
    if (b > 4) {
        a = a + b;
    }
    x = a;
    unlock(L);
end
T1: begin
    lock(L);
    a = b + 6;
    y = a;
    unlock(L);
end
coend
print(x);
print(y);
"""


def paper_figure1_source() -> str:
    """Source text of the paper's Figure 1 program."""
    return _FIGURE1_SOURCE


def paper_figure2_source() -> str:
    """Source text of the paper's Figure 2 program (Figures 3–5 rework it)."""
    return _FIGURE2_SOURCE


def paper_figure1() -> ProgramIR:
    """The paper's Figure 1: mutual exclusion kills a cross-thread def."""
    return _program(_FIGURE1_SOURCE)


def paper_figure2() -> ProgramIR:
    """The paper's Figure 2 / running example of Sections 4–5."""
    return _program(_FIGURE2_SOURCE)


def bank_accounts(n_threads: int = 3, n_transfers: int = 3) -> ProgramIR:
    """Threads transferring between two balances under one lock.

    Each critical section also computes thread-private bookkeeping
    (fees, running totals) that is lock independent — LICM fodder.
    """
    lines = ["balance0 = 100;", "balance1 = 100;", "cobegin"]
    for t in range(n_threads):
        lines.append(f"T{t}: begin")
        lines.append(f"    private fee = {t + 1};")
        lines.append("    private total = 0;")
        for k in range(n_transfers):
            amount = (t * 7 + k * 3) % 11 + 1
            lines += [
                "    lock(BANK);",
                f"    total = total + {amount};",
                f"    fee = fee + {k};",
                f"    balance0 = balance0 - {amount};",
                f"    balance1 = balance1 + {amount};",
                "    unlock(BANK);",
            ]
        lines.append("end")
    lines.append("coend")
    lines.append("print(balance0, balance1);")
    return _program("\n".join(lines))


def shared_counters(n_threads: int = 2, n_counters: int = 2, n_incr: int = 3) -> ProgramIR:
    """Per-counter locks; every increment properly protected."""
    lines = [f"c{i} = 0;" for i in range(n_counters)]
    lines.append("cobegin")
    for t in range(n_threads):
        lines.append(f"T{t}: begin")
        for k in range(n_incr):
            c = (t + k) % n_counters
            lines += [
                f"    lock(L{c});",
                f"    c{c} = c{c} + 1;",
                f"    unlock(L{c});",
            ]
        lines.append("end")
    lines.append("coend")
    lines.append("print(" + ", ".join(f"c{i}" for i in range(n_counters)) + ");")
    return _program("\n".join(lines))


def event_pipeline(n_stages: int = 3) -> ProgramIR:
    """A set/wait pipeline: stage i produces data for stage i+1."""
    lines = ["data0 = 1;", "cobegin"]
    for s in range(n_stages):
        lines.append(f"S{s}: begin")
        if s > 0:
            lines.append(f"    wait(ev{s});")
        lines.append(f"    data{s + 1} = data{s} * 2 + {s};")
        lines.append(f"    set(ev{s + 1});")
        lines.append("end")
    lines.append("coend")
    lines.append(f"print(data{n_stages});")
    return _program("\n".join(lines))


def licm_padding(n_threads: int = 2, n_private_stmts: int = 4) -> ProgramIR:
    """Critical sections padded with lock-independent private work.

    All the private computation inside the lock is movable; only the
    single shared update must stay.  The LICM benchmark measures how
    many statements leave the critical section and how lock hold time
    shrinks.
    """
    lines = ["acc = 0;", "cobegin"]
    for t in range(n_threads):
        lines.append(f"T{t}: begin")
        lines.append(f"    private w = {t};")
        lines.append("    lock(M);")
        for k in range(n_private_stmts):
            lines.append(f"    w = w * 3 + {k};")
        lines.append("    acc = acc + 1;")
        for k in range(n_private_stmts):
            lines.append(f"    out{t}_{k} = w + {k};")
        lines.append("    unlock(M);")
        lines.append("end")
    lines.append("coend")
    lines.append("print(acc);")
    for t in range(n_threads):
        lines.append(f"print(out{t}_0);")
    return _program("\n".join(lines))


def licm_loop_padding(n_threads: int = 2, loop_iters: int = 3) -> ProgramIR:
    """Critical sections containing a whole lock-independent loop.

    Exercises the paper's "unless the whole loop is lock independent"
    motion: the private summation loop can leave the critical section
    entirely, leaving only the shared update inside.
    """
    lines = ["acc = 0;", "cobegin"]
    for t in range(n_threads):
        lines += [
            f"T{t}: begin",
            f"    private w = {t};",
            "    private i = 0;",
            "    lock(M);",
            f"    while (i < {loop_iters}) {{ w = w + i; i = i + 1; }}",
            "    acc = acc + w;",
            "    unlock(M);",
            "end",
        ]
    lines.append("coend")
    lines.append("print(acc);")
    return _program("\n".join(lines))


def lock_density_sweep(fraction_locked: float, n_threads: int = 2,
                       n_stmts: int = 8) -> ProgramIR:
    """Programs whose fraction of shared accesses under the lock varies.

    The SWEEP-PI benchmark runs CSSA vs CSSAME over this family: the
    more accesses are protected, the more π arguments Algorithm A.3
    removes — quantifying the paper's core claim.
    """
    n_locked = round(n_stmts * fraction_locked)
    lines = ["v = 0;", "cobegin"]
    for t in range(n_threads):
        lines.append(f"T{t}: begin")
        if n_locked:
            lines.append("    lock(D);")
            lines.append("    v = 1;")  # every path through the body kills v
            for k in range(n_locked - 1):
                lines.append(f"    v = v + {t + k + 1};")
            lines.append(f"    r{t} = v;")
            lines.append("    unlock(D);")
        for k in range(n_stmts - n_locked):
            lines.append(f"    v = v - {t + k + 1};")
        lines.append("end")
    lines.append("coend")
    lines.append("print(" + ", ".join(f"r{t}" for t in range(n_threads)) + ");")
    return _program("\n".join(lines))

"""LVN — the Section 7 "translated scalar optimization" demo.

Measures how much redundant computation block-local value numbering
removes on workloads with repeated subexpressions, and that the reuse
opportunities *shrink* when conflicting access forces distinct π-guarded
names — the CSSAME invariant at work.
"""

from repro.bench import register
from repro.cssame import build_cssame
from repro.opt import local_value_numbering

from benchmarks.common import program_of


def _workload(protected: bool) -> str:
    guard_open = "lock(W);" if protected else ""
    guard_close = "unlock(W);" if protected else ""
    lines = ["base = 3;", "scale = 4;", "cobegin"]
    for t in range(2):
        lines.append(f"T{t}: begin")
        lines.append(f"    {guard_open}")
        for k in range(6):
            lines.append(f"    r{t}_{k} = base * scale + {t};")
        lines.append(f"    {guard_close}")
        lines.append("end")
    lines.append("coend")
    lines.append("print(r0_0, r1_0);")
    return "\n".join(line for line in lines if line.strip())


def run(protected: bool):
    program = program_of(_workload(protected))
    build_cssame(program)
    return local_value_numbering(program)


_CONFLICTING_SOURCE = """
base = 3;
cobegin
T0: begin
    x = base * base;
    y = base * base;
    print(x, y);
end
T1: begin
    base = 5;
end
coend
"""


@register(
    "lvn",
    group="fast",
    summary="LVN: reuse under protection, none under conflicting writes",
)
def bench_lvn() -> dict:
    protected = run(True)
    assert protected.expressions_replaced >= 8
    conflicting_prog = program_of(_CONFLICTING_SOURCE)
    build_cssame(conflicting_prog)
    conflicting = local_value_numbering(conflicting_prog)
    assert conflicting.expressions_replaced == 0
    return {
        "protected_replaced": protected.expressions_replaced,
        "conflicting_replaced": conflicting.expressions_replaced,
        "blocks_processed": protected.blocks_processed,
    }

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or a sweep that
quantifies a claim the paper makes qualitatively).  Absolute timings are
ours; the *shape* — which form wins, by how much, where the effect grows
— is what EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

from time import perf_counter

from repro.cssame import build_cssame
from repro.ir.lower import lower_program
from repro.ir.structured import ProgramIR
from repro.lang.parser import parse
from repro.report import measure_form

FIGURE2_SOURCE = """
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

FIGURE1_SOURCE = """
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


def program_of(source: str) -> ProgramIR:
    return lower_program(parse(source))


def form_metrics(source: str, prune: bool) -> dict:
    program = program_of(source)
    form = build_cssame(program, prune=prune)
    metrics = measure_form(program).as_dict()
    if form.rewrite_stats is not None:
        metrics["args_removed"] = form.rewrite_stats.args_removed
        metrics["pis_deleted"] = form.rewrite_stats.pis_deleted
    return metrics


#: the programs behind the paper's figures (Figures 3-5 rework the
#: Figure 2 program, so two sources cover the whole corpus)
FIGURE_CORPUS: dict[str, str] = {
    "figure1": FIGURE1_SOURCE,
    "figure2-5": FIGURE2_SOURCE,
}


def best_of(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timed calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or a sweep that
quantifies a claim the paper makes qualitatively).  Absolute timings are
ours; the *shape* — which form wins, by how much, where the effect grows
— is what EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

import json
import os

from repro.cssame import build_cssame
from repro.ir.lower import lower_program
from repro.ir.structured import ProgramIR
from repro.lang.parser import parse
from repro.obs.trace import Tracer
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

#: default output path: repo root, next to EXPERIMENTS.md
BENCH_OBS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_obs.json",
)


def traced_figure_observation(name: str, source: str) -> dict:
    """Run the full pipeline on one figure under an enabled tracer and
    distill the machine-readable observation: per-phase wall time (from
    the tracer's spans — the same numbers ``repro stats`` prints),
    FormMetrics of the optimized program, and the A.3 decision census.
    """
    from repro.session import Session

    tracer = Tracer()
    report = Session().optimize(source, trace=tracer)
    phases = {
        span.name: round(span.duration * 1e3, 6)
        for span in tracer.spans()
    }
    observation = {
        "figure": name,
        "phase_wall_ms": phases,
        "form_metrics": measure_form(report.program).as_dict(),
        "events": {
            kind: len(tracer.events_of_kind(kind))
            for kind in ("mutex-body", "pi-arg-removed", "pi-deleted")
        },
        "counters": tracer.metrics.as_dict()["counters"],
    }
    stats = report.form.rewrite_stats
    if stats is not None:
        observation["rewrite"] = {
            "args_removed": stats.args_removed,
            "pis_deleted": stats.pis_deleted,
        }
    return observation


def emit_bench_obs(path: str = BENCH_OBS_PATH) -> dict:
    """Write ``BENCH_obs.json``: one traced observation per figure.

    This is the benchmark trajectory EXPERIMENTS.md points at — every
    number in it flows through the :mod:`repro.obs` tracer rather than
    ad-hoc ``perf_counter`` calls in each benchmark.
    """
    payload = {
        "schema": "repro.obs/bench-obs/v1",
        "figures": [
            traced_figure_observation(name, source)
            for name, source in FIGURE_CORPUS.items()
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render a paper-style table to stdout (shown with pytest -s)."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

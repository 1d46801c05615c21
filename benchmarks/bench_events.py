"""EVENTS — guaranteed-ordering π pruning (inherited Lee et al. layer).

Quantifies the event-synchronization refinement the paper's framework
inherits: on producer/consumer pipelines, conflict arguments whose
definition is ordered after the protected use disappear, on top of the
mutex pruning of Algorithm A.3.
"""

from repro.bench import register
from repro.cssame import build_cssame
from repro.report import measure_form
from repro.synth import GeneratorConfig, generate_program

from benchmarks.common import program_of


def _pipeline_source(n_stages: int) -> str:
    """Stage i reads the accumulator, then signals stage i+1 which
    overwrites it — every overwrite is ordered after the earlier reads."""
    lines = ["acc = 1;", "cobegin"]
    for s in range(n_stages):
        lines.append(f"S{s}: begin")
        if s > 0:
            lines.append(f"    wait(step{s});")
        lines.append(f"    r{s} = acc + {s};")
        lines.append(f"    acc = r{s} * 2;")
        lines.append(f"    set(step{s + 1});")
        lines.append("end")
    lines.append("coend")
    lines.append("print(" + ", ".join(f"r{s}" for s in range(n_stages)) + ");")
    return "\n".join(lines)


def _pipeline_pi_args(stages: int, enabled: bool) -> tuple[int, int]:
    program = program_of(_pipeline_source(stages))
    form = build_cssame(program, prune_events=enabled)
    metrics = measure_form(program)
    removed = form.ordering_stats.args_removed if form.ordering_stats else 0
    return metrics.pi_args, removed


@register(
    "events",
    group="fast",
    summary="event-ordering π pruning on pipelines and generated programs",
)
def bench_events() -> dict:
    pipelines = {}
    for stages in (2, 3, 4):
        without, _ = _pipeline_pi_args(stages, enabled=False)
        with_events, removed = _pipeline_pi_args(stages, enabled=True)
        assert removed > 0 and with_events < without
        pipelines[str(stages)] = {
            "without": without,
            "with_events": with_events,
            "removed": removed,
        }
    generated_total = 0
    for seed in range(6):
        program = generate_program(
            GeneratorConfig(
                seed=seed, n_threads=3, stmts_per_thread=4,
                n_shared=2, n_events=2,
            )
        )
        form = build_cssame(program)
        generated_total += form.ordering_stats.args_removed
    assert generated_total > 0
    return {"pipelines": pipelines, "generated_removed": generated_total}

"""SCALE — cost of each compilation phase vs program size.

The paper reports no timings; this benchmark characterises our
implementation of each algorithm (PFG build, A.1, CSSA, A.3, CSCC,
PDCE, A.5) as the synthetic program grows, so regressions are visible
and the complexity of the Python prototype is documented.
"""

from repro.bench import register
from repro.cfg.builder import build_flow_graph
from repro.cssame import build_cssame, parallel_reaching_definitions
from repro.ir.structured import count_statements
from repro.mutex.identify import identify_mutex_structures
from repro.opt import (
    concurrent_constant_propagation,
    lock_independent_code_motion,
    parallel_dead_code_elimination,
)
from repro.synth import GeneratorConfig, generate_program

SIZES = [4, 12, 20]


@register(
    "scalability",
    group="slow",
    repeat=2,
    summary="every compilation phase across generated program sizes",
)
def bench_scalability() -> dict:
    by_size = {}
    for size in SIZES:
        program = make(size)
        graph = build_flow_graph(program)
        assert len(graph.blocks) > size
        structures = identify_mutex_structures(graph)
        assert sum(len(s) for s in structures.values()) > 0
        form = build_cssame(make(size))
        assert form.rewrite_stats is not None
        rd_prog = make(size)
        build_cssame(rd_prog)
        info = parallel_reaching_definitions(rd_prog)
        assert len(info.defs_of_use) > 0
        cp_prog = make(size)
        cp_form = build_cssame(cp_prog)
        cp = concurrent_constant_propagation(cp_prog, cp_form.graph)
        dce_prog = make(size)
        build_cssame(dce_prog)
        dce = parallel_dead_code_elimination(dce_prog)
        licm_prog = make(size)
        build_cssame(licm_prog)
        licm = lock_independent_code_motion(licm_prog)
        by_size[str(size)] = {
            "blocks": len(graph.blocks),
            "statements": count_statements(program),
            "constants": len(cp.constants),
            "dce_removed": dce.total_removed,
            "licm_moved": licm.total_moved,
        }
    return {"sizes": by_size}


def make(size: int):
    # Two threads, six shared variables: the π-argument count of the
    # CSSA form grows quadratically with conflicting definitions, so
    # sizes are chosen to keep the *form* (not our algorithms) the
    # bounded quantity.  See EXPERIMENTS.md / SCALE.
    return generate_program(
        GeneratorConfig(
            seed=size,
            n_threads=2,
            stmts_per_thread=size,
            n_shared=6,
            n_locks=2,
            p_critical=0.6,
            p_if=0.2,
        )
    )

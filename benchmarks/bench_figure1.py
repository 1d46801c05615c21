"""FIG1 — Figure 1: mutual exclusion reduces data dependencies.

Regenerates the paper's claim table for the Figure 1 program: the number
of definitions of ``a`` reaching each of T1's two uses, under CSSA vs
CSSAME, and that constant propagation proves ``g(a)`` sees ``a = 3``
only under CSSAME.
"""

from repro.bench import register
from repro.cssame import build_cssame, parallel_reaching_definitions
from repro.ir.printer import format_ir
from repro.ir.stmts import SAssign, SCallStmt
from repro.ir.structured import iter_statements
from repro.opt import concurrent_constant_propagation

from benchmarks.common import FIGURE1_SOURCE, program_of


def _reaching_a_counts(prune: bool) -> tuple[int, int]:
    """(defs of `a` reaching f(a), defs of `a` reaching g(a))."""
    program = program_of(FIGURE1_SOURCE)
    build_cssame(program, prune=prune)
    info = parallel_reaching_definitions(program)

    f_call = next(
        s for s, _ in iter_statements(program)
        if isinstance(s, SCallStmt) and s.func == "f"
    )
    g_holder = next(
        s for s, _ in iter_statements(program)
        if isinstance(s, SAssign) and s.target == "b" and s.version == 1
    )

    def count_a(stmt):
        defs = set()
        for use in stmt.uses():
            for d in info.defs(use):
                if getattr(d, "target", None) == "a" or (
                    getattr(d, "name", None) == "a"
                ):
                    defs.add(d)
        return len(defs)

    return count_a(f_call), count_a(g_holder)


def _constant_at_g(prune: bool) -> bool:
    program = program_of(FIGURE1_SOURCE)
    form = build_cssame(program, prune=prune)
    concurrent_constant_propagation(program, form.graph)
    return "g(3)" in format_ir(program)


@register(
    "figure1",
    group="fast",
    summary="Figure 1: mutex reduces reaching defs; constant reaches g(a)",
)
def bench_figure1() -> dict:
    cssa_f, cssa_g = _reaching_a_counts(prune=False)
    cssame_f, cssame_g = _reaching_a_counts(prune=True)
    assert cssame_g == 1 and cssa_g > cssame_g and cssame_f == cssa_f
    proves = {"cssa": _constant_at_g(False), "cssame": _constant_at_g(True)}
    assert proves["cssame"] and not proves["cssa"]
    return {
        "reaching_f": {"cssa": cssa_f, "cssame": cssame_f},
        "reaching_g": {"cssa": cssa_g, "cssame": cssame_g},
        "constant_at_g": proves,
    }

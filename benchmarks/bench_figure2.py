"""FIG2 — Figure 2: the Parallel Flow Graph of the running example.

Regenerates the PFG inventory the figure draws: parallel basic blocks,
dedicated Lock/Unlock nodes, cobegin/coend nodes, conflict edges between
the threads' accesses and mutex edges between the Lock/Unlock pairs —
and times PFG construction.
"""

from repro.bench import register
from repro.cfg.dot import to_dot
from repro.report import pfg_inventory
from repro.session import Session

from benchmarks.common import FIGURE2_SOURCE


@register(
    "figure2",
    group="fast",
    summary="Figure 2: PFG inventory and DOT render of the running example",
)
def bench_figure2() -> dict:
    form = Session().analyze(FIGURE2_SOURCE, prune=False)
    inv = pfg_inventory(form)
    assert inv["nodes_cobegin"] == 1 and inv["nodes_coend"] == 1
    assert inv["nodes_lock"] == 2 and inv["nodes_unlock"] == 2
    assert inv["edges_mutex"] == 2
    assert {e.var for e in form.graph.conflict_edges} == {"a", "b"}
    dot = to_dot(form.graph, "Figure 2 PFG")
    assert dot.count("hexagon") == 4
    assert "style=dotted" in dot and "style=dashed" in dot
    return {"inventory": {k: v for k, v in sorted(inv.items()) if v}}

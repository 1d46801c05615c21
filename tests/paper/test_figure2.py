"""Figure 2 — the running example's PFG.

The figure shows a PFG with dedicated Lock/Unlock nodes, cobegin/coend
nodes, conflict edges between the threads' accesses to ``a`` and ``b``,
and mutex edges between the Lock/Unlock pairs of the two threads.
"""

from repro.cfg.blocks import NodeKind
from repro.report import pfg_inventory
from repro.session import Session
from tests.conftest import FIGURE2_SOURCE


class TestFigure2PFG:
    def test_node_inventory(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        inv = pfg_inventory(form)
        assert inv["nodes_entry"] == 1
        assert inv["nodes_exit"] == 1
        assert inv["nodes_cobegin"] == 1
        assert inv["nodes_coend"] == 1
        assert inv["nodes_lock"] == 2
        assert inv["nodes_unlock"] == 2

    def test_mutex_edges(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        inv = pfg_inventory(form)
        # Lock(T0)—Unlock(T1) and Lock(T1)—Unlock(T0), both on L.
        assert inv["edges_mutex"] == 2
        assert all(e.lock_name == "L" for e in form.graph.mutex_edges)

    def test_conflict_edges_on_a_and_b(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        edge_vars = {e.var for e in form.graph.conflict_edges}
        assert edge_vars == {"a", "b"}
        kinds = {e.kind for e in form.graph.conflict_edges}
        assert "DU" in kinds and "DD" in kinds

    def test_conflict_edges_cross_threads_only(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        g = form.graph
        for e in form.graph.conflict_edges:
            src = g.blocks[e.src_block]
            dst = g.blocks[e.dst_block]
            assert src.thread_path and dst.thread_path
            assert src.thread_path != dst.thread_path

    def test_shared_variable_set(self):
        form = Session().analyze(FIGURE2_SOURCE, prune=False)
        assert form.shared == {"a", "b"}

    def test_dot_export_renders_everything(self):

        dot = Session().dot(FIGURE2_SOURCE)
        assert dot.count("hexagon") == 4  # 2 locks + 2 unlocks
        assert "style=dotted" in dot      # mutex edges
        assert "style=dashed" in dot      # conflict edges

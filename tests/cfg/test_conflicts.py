"""Shared variables, conflict edges, mutex edges, sync edges."""

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import collect_access_sites, shared_variables
from tests.cfg.edges_oracle import add_conflict_edges, add_mutex_edges, add_sync_edges
from tests.conftest import build


def graph_of(source):
    return build_flow_graph(build(source))


class TestSharedVariables:
    def test_figure2_shared(self, figure2):
        g = build_flow_graph(figure2)
        assert shared_variables(g) == {"a", "b"}
        # x and y are written by one thread only and read after coend.

    def test_read_only_not_shared(self):
        g = graph_of("v = 1; cobegin begin a = v; end begin b = v; end coend")
        assert "v" not in shared_variables(g)

    def test_write_read_shared(self):
        g = graph_of("cobegin begin v = 1; end begin b = v; end coend")
        assert "v" in shared_variables(g)

    def test_write_write_shared(self):
        g = graph_of("cobegin begin v = 1; end begin v = 2; end coend")
        assert "v" in shared_variables(g)

    def test_sequential_writes_not_shared(self):
        g = graph_of("v = 1; v = 2; print(v);")
        assert shared_variables(g) == set()

    def test_private_after_mangling_not_shared(self):
        g = graph_of(
            """
            cobegin
            begin private t = 1; t = t + 1; end
            begin private t = 2; t = t + 2; end
            coend
            """
        )
        assert shared_variables(g) == set()


class TestAccessSites:
    def test_site_roles(self):
        g = graph_of("a = b + b;")
        sites = collect_access_sites(g)
        assert sum(1 for s in sites["a"] if s.is_def) == 1
        assert sum(1 for s in sites["b"] if not s.is_def) == 2

    def test_phi_defs_not_real(self, figure2):
        from repro.cssame import build_cssame

        build_cssame(figure2, prune=False)
        g2 = build_flow_graph(figure2)
        sites = collect_access_sites(g2)
        a_defs = [s for s in sites["a"] if s.is_def]
        real = [s for s in a_defs if s.is_real_def]
        assert len(real) < len(a_defs)  # φ defs present but not real


class TestConflictEdges:
    def test_figure2_du_edges(self, figure2):
        g = build_flow_graph(figure2)
        edges = add_conflict_edges(g)
        du = [e for e in edges if e.kind == "DU"]
        dd = [e for e in edges if e.kind == "DD"]
        assert du, "expected def-use conflicts"
        assert dd, "expected the write-write conflict on a"
        assert {e.var for e in edges} == {"a", "b"}

    def test_no_edges_in_sequential_program(self):
        g = graph_of("a = 1; b = a;")
        assert add_conflict_edges(g) == []

    def test_dd_emitted_once_per_pair(self):
        g = graph_of("cobegin begin v = 1; end begin v = 2; end coend")
        edges = add_conflict_edges(g)
        dd = [e for e in edges if e.kind == "DD"]
        assert len(dd) == 1


class TestMutexEdges:
    def test_figure2_mutex_edges(self, figure2):
        g = build_flow_graph(figure2)
        edges = add_mutex_edges(g)
        # Lock(T0)–Unlock(T1) and Lock(T1)–Unlock(T0).
        assert len(edges) == 2
        assert all(e.lock_name == "L" for e in edges)

    def test_different_locks_no_edge(self):
        g = graph_of(
            """
            cobegin
            begin lock(A); unlock(A); end
            begin lock(B); unlock(B); end
            coend
            """
        )
        assert add_mutex_edges(g) == []

    def test_sequential_locks_no_edge(self):
        g = graph_of("lock(L); unlock(L); lock(L); unlock(L);")
        assert add_mutex_edges(g) == []


class TestSyncEdges:
    def test_set_wait_edge(self):
        g = graph_of(
            """
            cobegin
            begin x = 1; set(e); end
            begin wait(e); y = x; end
            coend
            """
        )
        edges = add_sync_edges(g)
        assert len(edges) == 1
        assert edges[0].event_name == "e"

    def test_unrelated_events_no_edge(self):
        g = graph_of(
            """
            cobegin
            begin set(e1); end
            begin wait(e2); end
            coend
            """
        )
        assert add_sync_edges(g) == []

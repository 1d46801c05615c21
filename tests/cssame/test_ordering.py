"""Event-ordering π pruning (the inherited Lee et al. refinement)."""

from repro.cfg.builder import build_flow_graph
from repro.cssame import build_cssame
from repro.cssame.ordering import EventOrdering
from repro.ir.stmts import Pi, SAssign
from repro.ir.structured import iter_statements
from tests.conftest import build


def pis(program):
    return [s for s, _ in iter_statements(program) if isinstance(s, Pi)]


def block_of_target(graph, name):
    for b in graph.blocks:
        for s in b.stmts:
            if isinstance(s, SAssign) and s.target == name:
                return b.id
    raise AssertionError(name)


class TestMustPrecede:
    def setup_graph(self, source):
        program = build(source)
        graph = build_flow_graph(program)
        return program, graph, EventOrdering(graph)

    def test_dominance_implies_precedence(self):
        # The lock node splits a and b into distinct blocks.
        _, g, order = self.setup_graph("a = 1; lock(L); b = 2; unlock(L);")
        a, b = block_of_target(g, "a"), block_of_target(g, "b")
        assert order.must_precede(a, b)
        assert not order.must_precede(b, a)
        assert not order.must_precede(a, a)

    def test_event_crossing(self):
        _, g, order = self.setup_graph(
            """
            cobegin
            P: begin a = 1; set(e); end
            C: begin wait(e); b = 2; end
            coend
            """
        )
        a, b = block_of_target(g, "a"), block_of_target(g, "b")
        assert order.must_precede(a, b)
        assert not order.must_precede(b, a)

    def test_use_after_set_not_ordered(self):
        _, g, order = self.setup_graph(
            """
            cobegin
            P: begin set(e); a = 1; end
            C: begin wait(e); b = 2; end
            coend
            """
        )
        a, b = block_of_target(g, "a"), block_of_target(g, "b")
        assert not order.must_precede(a, b)  # a is after the set

    def test_multiple_setters_require_all(self):
        _, g, order = self.setup_graph(
            """
            cobegin
            P1: begin a = 1; set(e); end
            P2: begin set(e); end
            C: begin wait(e); b = 2; end
            coend
            """
        )
        a, b = block_of_target(g, "a"), block_of_target(g, "b")
        # P2's set can fire before a executes — not ordered.
        assert not order.must_precede(a, b)

    def test_transitive_ordering(self):
        _, g, order = self.setup_graph(
            """
            cobegin
            T0: begin a = 1; set(e1); end
            T1: begin wait(e1); set(e2); end
            T2: begin wait(e2); b = 2; end
            coend
            """
        )
        a, b = block_of_target(g, "a"), block_of_target(g, "b")
        assert order.must_precede(a, b)


class TestBarrierOrdering:
    def test_one_shot_barrier_orders_phases(self):
        program = build(
            """
            cobegin
            T0: begin a = 1; barrier(B); c = 2; end
            T1: begin b = 3; barrier(B); d = 4; end
            coend
            """
        )
        g = build_flow_graph(program)
        from repro.cssame.ordering import EventOrdering

        order = EventOrdering(g)
        a, b, c, d = (block_of_target(g, n) for n in "abcd")
        assert order.must_precede(a, d)  # T0 phase 1 before T1 phase 2
        assert order.must_precede(b, c)
        assert not order.must_precede(c, b)
        assert not order.must_precede(a, b)  # both phase 1

    def test_cyclic_barrier_excluded(self):
        program = build(
            """
            cobegin
            T0: begin
                private i = 0;
                while (i < 2) { a = 1; barrier(B); i = i + 1; }
            end
            T1: begin
                private j = 0;
                while (j < 2) { barrier(B); d = 4; j = j + 1; }
            end
            coend
            """
        )
        g = build_flow_graph(program)
        from repro.cssame.ordering import EventOrdering

        order = EventOrdering(g)
        assert order.barrier_nodes == {}  # phases ambiguous: no edges

    def test_barrier_serializes_race_pair(self):
        from repro.session import Session

        clean_src = """
        cobegin
        T0: begin data = 5; barrier(B); end
        T1: begin barrier(B); out = data; end
        coend
        print(out);
        """
        warnings, races = Session().diagnose(clean_src)
        assert races == []

    def test_without_barrier_race_reported(self):
        from repro.session import Session

        racy_src = """
        cobegin
        T0: begin data = 5; end
        T1: begin out = data; end
        coend
        print(out);
        """
        _w, races = Session().diagnose(racy_src)
        assert races

    def test_event_serializes_race_pair(self):
        from repro.session import Session

        _w, races = Session().diagnose(
            """
            cobegin
            P: begin data = 5; set(go); end
            C: begin wait(go); out = data; end
            coend
            print(out);
            """
        )
        assert races == []

    def test_ordering_opt_out(self):
        from repro.cfg.builder import build_flow_graph as bfg
        from repro.mutex.identify import identify_mutex_structures
        from repro.mutex.races import detect_races

        program = build(
            """
            cobegin
            T0: begin data = 5; barrier(B); end
            T1: begin barrier(B); out = data; end
            coend
            print(out);
            """
        )
        g = bfg(program)
        structures = identify_mutex_structures(g)
        assert detect_races(g, structures, use_ordering=False)
        assert detect_races(g, structures, use_ordering=True) == []


class TestPruning:
    def test_post_use_def_removed(self):
        program = build(
            """
            x = 0;
            cobegin
            P: begin a = x; set(ready); end
            C: begin wait(ready); x = 7; end
            coend
            print(a, x);
            """
        )
        form = build_cssame(program)
        assert form.ordering_stats.args_removed == 1
        assert form.ordering_stats.pis_deleted == 1
        # The producer's read of x chains straight to x0.
        a_assign = next(
            s for s, _ in iter_statements(program)
            if isinstance(s, SAssign) and s.target == "a"
        )
        assert next(a_assign.uses()).ssa_name == "x0"

    def test_pre_use_def_kept(self):
        # The def happens *before* the use — genuinely reaches; kept.
        program = build(
            """
            x = 0;
            cobegin
            P: begin x = 41; set(ready); end
            C: begin wait(ready); y = x; end
            coend
            print(y);
            """
        )
        form = build_cssame(program)
        assert form.ordering_stats.args_removed == 0
        assert len(pis(program)) == 1

    def test_disabled_by_flag(self):
        program = build(
            """
            x = 0;
            cobegin
            P: begin a = x; set(ready); end
            C: begin wait(ready); x = 7; end
            coend
            print(a, x);
            """
        )
        form = build_cssame(program, prune_events=False)
        assert form.ordering_stats is None
        assert len(pis(program)) == 1

    def test_no_events_no_work(self, figure2):
        form = build_cssame(figure2)
        assert form.ordering_stats.args_removed == 0

    def test_semantics_preserved(self):
        from repro.verify import exhaustive_equivalence

        source = """
        x = 0; y = 0;
        cobegin
        P: begin a = x + y; set(go); end
        C: begin wait(go); x = 7; y = x + 1; end
        coend
        print(a, x, y);
        """
        cssa = build(source)
        build_cssame(cssa, prune=False)
        cssame = build(source)
        build_cssame(cssame, prune=True)
        res = exhaustive_equivalence(cssa, cssame)
        assert res.complete and res.equal, res.explain()

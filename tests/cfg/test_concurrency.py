"""May-happen-in-parallel relation."""

from repro.cfg.builder import build_flow_graph
from repro.cfg.concurrency import (
    may_happen_in_parallel,
    thread_paths_diverge,
)
from tests.conftest import build


def block_by_target(g, name):
    for b in g.blocks:
        for s in b.stmts:
            if getattr(s, "target", None) == name:
                return b
    raise AssertionError(name)


class TestThreadPaths:
    def test_empty_paths_not_concurrent(self):
        assert not thread_paths_diverge((), ())
        assert not thread_paths_diverge(((1, 0),), ())

    def test_same_branch_not_concurrent(self):
        assert not thread_paths_diverge(((1, 0),), ((1, 0),))

    def test_different_branches_concurrent(self):
        assert thread_paths_diverge(((1, 0),), ((1, 1),))

    def test_unrelated_cobegins_not_concurrent(self):
        assert not thread_paths_diverge(((1, 0),), ((2, 1),))

    def test_nested_divergence(self):
        outer = ((1, 0), (5, 0))
        sibling_inner = ((1, 0), (5, 1))
        other_outer = ((1, 1),)
        assert thread_paths_diverge(outer, sibling_inner)
        assert thread_paths_diverge(outer, other_outer)


class TestMHPOnGraphs:
    def test_siblings_concurrent(self):
        g = build_flow_graph(
            build("cobegin begin a = 1; end begin b = 2; end coend")
        )
        a, b = block_by_target(g, "a"), block_by_target(g, "b")
        assert may_happen_in_parallel(a, b)

    def test_before_and_after_not_concurrent(self):
        g = build_flow_graph(
            build("p = 0; cobegin begin a = 1; end begin b = 2; end coend q = 3;")
        )
        p, a, q = (block_by_target(g, n) for n in "paq")
        assert not may_happen_in_parallel(p, a)
        assert not may_happen_in_parallel(q, a)
        assert not may_happen_in_parallel(p, q)

    def test_same_thread_not_concurrent(self):
        g = build_flow_graph(
            build("cobegin begin a = 1; c = 2; end begin b = 3; end coend")
        )
        a, c = block_by_target(g, "a"), block_by_target(g, "c")
        assert not may_happen_in_parallel(a, c)

    def test_nested_inner_concurrent_with_outer_sibling(self):
        g = build_flow_graph(
            build(
                """
                cobegin
                begin cobegin begin x = 1; end begin y = 2; end coend end
                begin z = 3; end
                coend
                """
            )
        )
        x, y, z = (block_by_target(g, n) for n in "xyz")
        assert may_happen_in_parallel(x, y)
        assert may_happen_in_parallel(x, z)
        assert may_happen_in_parallel(y, z)

    def test_sequential_cobegins_not_concurrent(self):
        g = build_flow_graph(
            build(
                """
                cobegin begin a = 1; end begin b = 2; end coend
                cobegin begin c = 3; end begin d = 4; end coend
                """
            )
        )
        a, c = block_by_target(g, "a"), block_by_target(g, "c")
        assert not may_happen_in_parallel(a, c)

    def test_cobegin_in_loop_iterations_not_concurrent(self):
        # coend joins before the next iteration begins.
        g = build_flow_graph(
            build(
                """
                i = 0;
                while (i < 2) {
                    cobegin begin a = 1; end begin b = 2; end coend
                    i = i + 1;
                }
                """
            )
        )
        a, b = block_by_target(g, "a"), block_by_target(g, "b")
        i = block_by_target(g, "i")
        assert may_happen_in_parallel(a, b)
        assert not may_happen_in_parallel(a, i)

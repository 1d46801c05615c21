"""Exhaustive interleaving exploration."""

import sys
import threading

import pytest

from repro.vm.compile import compile_program
from repro.vm.explore import explore, find_witness
from repro.vm.machine import Machine, run_random
from tests.conftest import build


def outcomes(source, **kw):
    return explore(build(source), **kw)


class TestSequential:
    def test_single_outcome(self):
        res = outcomes("a = 1; print(a);")
        assert res.outcomes == {(("print", (1,)),)}
        assert res.complete

    def test_empty_program(self):
        res = outcomes("")
        assert res.outcomes == {()}

    def test_loop(self):
        res = outcomes("i = 0; while (i < 3) { i = i + 1; } print(i);")
        assert res.outcomes == {(("print", (3,)),)}


class TestInterleavings:
    def test_print_order_both_ways(self):
        res = outcomes(
            "cobegin begin print(1); end begin print(2); end coend"
        )
        assert res.outcomes == {
            (("print", (1,)), ("print", (2,))),
            (("print", (2,)), ("print", (1,))),
        }

    def test_lost_update_enumerated(self):
        res = outcomes(
            """
            x = 0;
            cobegin
            begin t1 = x; x = t1 + 1; end
            begin t2 = x; x = t2 + 1; end
            coend
            print(x);
            """
        )
        finals = {o[0][1][0] for o in res.outcomes}
        assert finals == {1, 2}

    def test_locked_increments_single_outcome(self):
        res = outcomes(
            """
            x = 0;
            cobegin
            begin lock(L); t1 = x; x = t1 + 1; unlock(L); end
            begin lock(L); t2 = x; x = t2 + 1; unlock(L); end
            coend
            print(x);
            """
        )
        assert res.outcomes == {(("print", (2,)),)}

    def test_figure2_outcomes(self, figure2):
        res = explore(figure2)
        assert res.outcomes == {
            (("print", (13,)), ("print", (6,))),
            (("print", (13,)), ("print", (14,))),
        }

    def test_deadlock_outcome(self):
        res = outcomes(
            """
            cobegin
            begin lock(A); lock(B); unlock(B); unlock(A); end
            begin lock(B); lock(A); unlock(A); unlock(B); end
            coend
            print(1);
            """
        )
        assert res.can_deadlock
        # The non-deadlocking schedules still print.
        assert (("print", (1,)),) in res.outcomes

    def test_event_enforces_order(self):
        res = outcomes(
            """
            cobegin
            begin x = 5; set(e); end
            begin wait(e); print(x); end
            coend
            """
        )
        assert res.outcomes == {(("print", (5,)),)}

    def test_random_runs_within_explored_set(self):
        src = """
        x = 1;
        cobegin
        begin x = x + 1; end
        begin x = x * 3; end
        coend
        print(x);
        """
        res = outcomes(src)
        for seed in range(30):
            ex = run_random(build(src), seed=seed)
            assert ex.output_key() in res.outcomes


class TestBudget:
    def test_truncation_flagged(self):
        res = outcomes(
            """
            cobegin
            begin a = 1; a = 2; a = 3; a = 4; end
            begin b = 1; b = 2; b = 3; b = 4; end
            begin c = 1; c = 2; c = 3; c = 4; end
            coend
            """,
            max_states=10,
        )
        assert not res.complete

    def test_state_sharing_keeps_count_small(self):
        # Two independent threads of n steps: O(n^2) states, not 2^n.
        res = outcomes(
            """
            cobegin
            begin a = 1; a = 2; a = 3; a = 4; a = 5; end
            begin b = 1; b = 2; b = 3; b = 4; b = 5; end
            coend
            """
        )
        assert res.complete
        assert res.states < 200


class TestRecursionLimit:
    """Searches raise the process-wide recursion limit; overlapping ones
    share the raise, so the last to finish restores the prior limit."""

    @pytest.fixture(autouse=True)
    def _low_limit(self):
        # Each test starts below the search limit, whatever an earlier
        # test left behind, and the process gets its own limit back.
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(4_000)
        yield
        sys.setrecursionlimit(saved)

    @pytest.mark.parametrize("first, held", [("explore", "witness"), ("witness", "explore")])
    def test_overlapping_searches_restore_the_limit(self, monkeypatch, first, held):
        program = compile_program(
            build("cobegin begin print(1); end begin print(2); end coend")
        )
        both_orders = {
            (("print", (1,)), ("print", (2,))),
            (("print", (2,)), ("print", (1,))),
        }
        searches = {
            "explore": lambda: explore(program).outcomes,
            "witness": lambda: find_witness(program, (("print", (2,)), ("print", (1,)))),
        }
        results = {}
        thread = threading.Thread(target=lambda: results.update({held: searches[held]()}))
        entered, release = threading.Event(), threading.Event()
        step = Machine.step

        def held_step(machine, state, tid):
            # The first search, at its first step, starts the second and
            # waits until that one is held inside its first step; the
            # first then finishes while the second is still searching.
            if threading.current_thread() is thread:
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=30)
            elif not entered.is_set():
                thread.start()
                assert entered.wait(timeout=30)
            return step(machine, state, tid)

        monkeypatch.setattr(Machine, "step", held_step)
        prior = sys.getrecursionlimit()
        try:
            results[first] = searches[first]()
            during = sys.getrecursionlimit()
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert sys.getrecursionlimit() == prior
        assert during >= 100_000  # the held search still runs under the raise
        assert results["explore"] == both_orders
        assert results["witness"] is not None

"""The interleaving VM with seeded random scheduling."""

import pytest

from repro.errors import DeadlockError, StepLimitExceeded, VMError
from repro.vm.machine import VirtualMachine, default_functions, run_random
from tests.conftest import build


def run(source, seed=0, **kw):
    return run_random(build(source), seed=seed, **kw)


class TestSequentialExecution:
    def test_arithmetic(self):
        ex = run("a = 2; b = a * 3 + 1; print(b);")
        assert ex.printed == [(7,)]

    def test_truncating_division(self):
        ex = run("print(-7 / 2, -7 % 2);")
        assert ex.printed == [(-3, -1)]

    def test_unset_variable_reads_zero(self):
        ex = run("print(zz);")
        assert ex.printed == [(0,)]

    def test_if_else(self):
        assert run("a = 5; if (a > 3) { print(1); } else { print(2); }").printed == [(1,)]
        assert run("a = 1; if (a > 3) { print(1); } else { print(2); }").printed == [(2,)]

    def test_while_loop(self):
        ex = run("i = 0; s = 0; while (i < 5) { s = s + i; i = i + 1; } print(s);")
        assert ex.printed == [(10,)]

    def test_no_short_circuit_documented(self):
        # Both operands always evaluate: 0 && (1/0) faults.
        with pytest.raises(VMError):
            run("x = 0 && 1 / 0;")

    def test_call_events_recorded(self):
        ex = run("f(1, 2); print(3);")
        assert ex.events[0] == ("call", "f", (1, 2))

    def test_expression_call_deterministic(self):
        a = run("x = g(7); print(x);").printed
        b = run("x = g(7); print(x);", seed=99).printed
        assert a == b

    def test_division_by_zero_raises(self):
        with pytest.raises(VMError):
            run("x = 1 / 0;")


class TestConcurrency:
    def test_cobegin_joins_before_continue(self):
        ex = run(
            "cobegin begin a = 1; end begin b = 2; end coend print(a + b);"
        )
        assert ex.printed == [(3,)]

    def test_locks_serialize(self):
        # Both increments always take effect when protected.
        for seed in range(20):
            ex = run(
                """
                x = 0;
                cobegin
                begin lock(L); t1 = x; x = t1 + 1; unlock(L); end
                begin lock(L); t2 = x; x = t2 + 1; unlock(L); end
                coend
                print(x);
                """,
                seed=seed,
            )
            assert ex.printed == [(2,)]

    def test_unprotected_race_can_lose_update(self):
        outcomes = set()
        for seed in range(60):
            ex = run(
                """
                x = 0;
                cobegin
                begin t1 = x; x = t1 + 1; end
                begin t2 = x; x = t2 + 1; end
                coend
                print(x);
                """,
                seed=seed,
            )
            outcomes.add(ex.printed[0])
        assert (2,) in outcomes
        assert (1,) in outcomes  # the classic lost update

    def test_event_ordering(self):
        for seed in range(10):
            ex = run(
                """
                cobegin
                begin x = 5; set(e); end
                begin wait(e); print(x); end
                coend
                """,
                seed=seed,
            )
            assert ex.printed == [(5,)]

    def test_nested_cobegin(self):
        ex = run(
            """
            cobegin
            begin
                cobegin begin a = 1; end begin b = 2; end coend
                c = a + b;
            end
            begin d = 10; end
            coend
            print(c + d);
            """
        )
        assert ex.printed == [(13,)]

    def test_deadlock_detected(self):
        with pytest.raises(DeadlockError):
            run(
                """
                cobegin
                begin lock(A); lock(B); unlock(B); unlock(A); end
                begin lock(B); wait(never); unlock(B); end
                coend
                """
            )

    def test_deadlock_reported_not_raised(self):
        ex = run("wait(never);", raise_on_deadlock=False)
        assert ex.deadlocked

    def test_self_deadlock_non_reentrant(self):
        with pytest.raises(DeadlockError):
            run("lock(L); lock(L); unlock(L); unlock(L);")

    def test_unlock_unowned_raises(self):
        with pytest.raises(VMError):
            run("unlock(L);")

    def test_fuel_limit(self):
        with pytest.raises(StepLimitExceeded):
            run("while (1) { x = x + 1; }", fuel=100)


class TestInstrumentation:
    def test_lock_held_steps_positive(self):
        ex = run("lock(L); a = 1; b = 2; unlock(L);")
        assert ex.lock_held_steps["L"] >= 2

    def test_acquisition_count(self):
        ex = run("lock(L); unlock(L); lock(L); unlock(L);")
        assert ex.lock_acquisitions["L"] == 2

    def test_blocked_steps_under_contention(self):
        total_blocked = 0
        for seed in range(10):
            ex = run(
                """
                cobegin
                begin lock(L); a = 1; a = 2; a = 3; unlock(L); end
                begin lock(L); b = 1; b = 2; b = 3; unlock(L); end
                coend
                """,
                seed=seed,
            )
            total_blocked += ex.lock_blocked_steps.get("L", 0)
        assert total_blocked > 0

    def test_final_memory_snapshot(self):
        ex = run("a = 4; b = a + 1;")
        assert ex.memory == {"a": 4, "b": 5}


class TestDeterminism:
    def test_same_seed_same_run(self):
        src = """
        x = 0;
        cobegin
        begin x = x + 1; end
        begin x = x * 2; end
        coend
        print(x);
        """
        a = run_random(build(src), seed=5)
        b = run_random(build(src), seed=5)
        assert a.events == b.events and a.steps == b.steps

    def test_default_functions_pure(self):
        assert default_functions("f", [1, 2]) == default_functions("f", [1, 2])
        assert default_functions("f", [1]) != default_functions("g", [1])

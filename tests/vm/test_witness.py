"""Schedule witness extraction and replay."""

import pytest

from repro.errors import VMError
from repro.vm import VirtualMachine, explore, find_witness
from repro.vm.compile import compile_program
from tests.conftest import build
from tests.vm.explore_oracle import oracle_explore


RACY = """
x = 0;
cobegin
begin t1 = x; x = t1 + 1; end
begin t2 = x; x = t2 + 1; end
coend
print(x);
"""


class TestFindWitness:
    def test_witness_for_each_outcome(self):
        program = build(RACY)
        res = explore(program)
        for outcome in res.outcomes:
            schedule = find_witness(build(RACY), outcome)
            assert schedule is not None, outcome

    def test_witness_replays_to_outcome(self):
        program = build(RACY)
        lost_update = (("print", (1,)),)
        schedule = find_witness(build(RACY), lost_update)
        assert schedule is not None
        vm = VirtualMachine(build(RACY))
        ex = vm.replay(schedule)
        assert ex.output_key() == lost_update

    def test_impossible_outcome_returns_none(self):
        schedule = find_witness(build(RACY), (("print", (99,)),))
        assert schedule is None

    def test_deadlock_witness(self):
        src = """
        cobegin
        begin lock(A); lock(B); unlock(B); unlock(A); end
        begin lock(B); lock(A); unlock(A); unlock(B); end
        coend
        """
        schedule = find_witness(build(src), (("deadlock",),))
        assert schedule is not None
        vm = VirtualMachine(build(src))
        ex = vm.replay(schedule)
        assert ex.deadlocked

    def test_sequential_witness_is_full_run(self):
        src = "a = 1; print(a);"
        schedule = find_witness(build(src), (("print", (1,)),))
        assert schedule is not None
        assert all(tid == () for tid in schedule)


UNOWNED_UNLOCK = """
cobegin
begin lock(L); print(1); unlock(L); end
begin unlock(L); end
coend
"""


class TestErrorWitness:
    def test_explore_reports_the_vm_error(self):
        res = explore(build(UNOWNED_UNLOCK))
        errors = {o[-1] for o in res.outcomes if o and o[-1][0] == "error"}
        assert errors == {
            ("error", "unlock(L) by (1,) but owner is None"),
            ("error", "unlock(L) by (1,) but owner is (0,)"),
        }

    def test_state_count_matches_the_reference_explorer(self):
        program = compile_program(build(UNOWNED_UNLOCK))
        _outcomes, states, complete = oracle_explore(program)
        res = explore(program)
        assert (res.states, res.complete) == (states, complete)

    def test_witness_ends_in_the_failing_step(self):
        res = explore(build(UNOWNED_UNLOCK))
        for outcome in (o for o in res.outcomes if o[-1][0] == "error"):
            schedule = find_witness(build(UNOWNED_UNLOCK), outcome)
            assert schedule is not None, outcome
            assert schedule[-1] == (1,)
            vm = VirtualMachine(build(UNOWNED_UNLOCK))
            with pytest.raises(VMError) as info:
                vm.replay(schedule)
            assert ("error", str(info.value)) == outcome[-1]
            assert tuple(vm.execution.events) == outcome[:-1]

    def test_seeded_run_raises_the_same_error(self):
        messages = set()
        for seed in range(16):
            with pytest.raises(VMError) as info:
                VirtualMachine(build(UNOWNED_UNLOCK), seed=seed).run()
            messages.add(str(info.value))
        assert messages <= {
            "unlock(L) by (1,) but owner is None",
            "unlock(L) by (1,) but owner is (0,)",
        }


class TestReplay:
    def test_replay_deterministic(self):
        program = build(RACY)
        res = explore(program)
        outcome = sorted(res.outcomes)[0]
        schedule = find_witness(build(RACY), outcome)
        for _ in range(3):
            ex = VirtualMachine(build(RACY)).replay(schedule)
            assert ex.output_key() == outcome

    def test_replay_rejects_bad_thread(self):
        vm = VirtualMachine(build("print(1);"))
        with pytest.raises(VMError):
            vm.replay([(9, 9)])

    def test_replay_rejects_finished_thread(self):
        vm = VirtualMachine(build("print(1);"))
        with pytest.raises(VMError):
            vm.replay([(), (), ()])

    def test_replay_rejects_blocked_thread(self):
        vm = VirtualMachine(build("wait(never); print(1);"))
        with pytest.raises(VMError):
            vm.replay([()])

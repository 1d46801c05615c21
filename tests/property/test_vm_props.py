"""Property tests for the VM and the exhaustive explorer."""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import VMError
from repro.ir.lower import lower_program
from repro.lang.parser import parse
from repro.synth import GeneratorConfig, generate_program
from repro.vm.compile import compile_program
from repro.vm.explore import explore
from repro.vm.machine import Machine, VirtualMachine, run_random
from tests.vm.explore_oracle import oracle_explore, oracle_transitions

_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 5_000),
    n_threads=st.integers(1, 3),
    stmts_per_thread=st.integers(1, 4),
    n_shared=st.integers(1, 2),
    n_locks=st.integers(0, 2),
    p_if=st.floats(0.0, 0.3),
    p_critical=st.floats(0.0, 0.8),
)


@given(_configs, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_runs_deterministic_per_seed(config, seed):
    program = generate_program(config)
    a = run_random(program, seed=seed)
    b = run_random(program, seed=seed)
    assert a.events == b.events
    assert a.memory == b.memory
    assert a.steps == b.steps


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_random_outcomes_subset_of_explored(config):
    program = generate_program(config)
    res = explore(program, max_states=100_000)
    if not res.complete:
        return
    for seed in range(12):
        ex = run_random(program, seed=seed, raise_on_deadlock=False)
        assert ex.output_key() in res.outcomes


@given(_configs, st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_mutual_exclusion_invariant(config, seed):
    """At every step, each lock has at most one owner and the owner is a
    live thread (checked by instrumenting the machine)."""
    program = generate_program(config)
    vm = VirtualMachine(program, seed=seed)
    original_step = vm.step

    def checked_step(state, tid):
        event, next_state = original_step(state, tid)
        live = {rec[0] for rec in next_state[0]}
        for owner in next_state[2]:
            assert owner is None or owner in live  # finished threads are dropped
        return event, next_state

    vm.step = checked_step
    vm.run(raise_on_deadlock=False)


@given(_configs, st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_lock_instrumentation_consistent(config, seed):
    program = generate_program(config)
    ex = run_random(program, seed=seed, raise_on_deadlock=False)
    for lock, held in ex.lock_held_steps.items():
        assert held >= 0
        # A lock is held only after at least one acquisition.
        assert ex.lock_acquisitions.get(lock, 0) >= 1


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_race_free_generated_programs_never_deadlock(config):
    config.race_free = True
    program = generate_program(config)
    res = explore(program, max_states=100_000)
    if res.complete:
        assert not res.can_deadlock


def _error_kind(outcomes) -> frozenset:
    """Outcomes with error messages reduced to the marker (the oracle
    words its error outcomes differently)."""
    return frozenset(
        tuple(("error",) if e[0] == "error" else e for e in o) for o in outcomes
    )


@given(_configs, st.sampled_from([50, 400, 100_000]))
@settings(max_examples=40, deadline=None)
def test_explore_matches_the_reference_transition_function(config, max_states):
    """The explorer, stepping with the VM's transition function, visits
    the same states and finds the same outcomes as the reference
    explorer with its own copy of the semantics, truncated or not."""
    program = compile_program(generate_program(config))
    res = explore(program, max_states=max_states)
    outcomes, states, complete = oracle_explore(program, max_states=max_states)
    assert (res.states, res.complete) == (states, complete)
    assert _error_kind(res.outcomes) == _error_kind(outcomes)
    assert _successors_match_oracle(program, max_states) == states


def _slot_state(layout, state) -> tuple:
    """The machine state that the oracle's ``state`` encodes: the same
    thread records, and one slot per variable, lock and event."""
    threads, memory, locks, events = state
    memory, locks = dict(memory), dict(locks)
    return (
        threads,
        tuple(memory.get(name, 0) for name in layout.variables),
        tuple(locks.get(name) for name in layout.locks),
        tuple(name in events for name in layout.events),
    )


def _oracle_state(layout, state) -> tuple:
    """The inverse of :func:`_slot_state`: zero-valued variables, free
    locks and unset events dropped, the rest as sorted pairs or names."""
    threads, memory, locks, events = state
    return (
        threads,
        tuple((name, v) for name, v in zip(layout.variables, memory) if v != 0),
        tuple((name, o) for name, o in zip(layout.locks, locks) if o is not None),
        tuple(name for name, is_set in zip(layout.events, events) if is_set),
    )


def _successors_match_oracle(program, max_states=200_000):
    """``Machine.step`` on slot-indexed states gives the oracle's next
    state for every transition the oracle explores, through the
    bijection between the two state encodings."""
    machine = Machine(program)
    layout = machine.layout
    transitions = oracle_transitions(program, max_states=max_states)
    for state, moves in transitions.items():
        slotted = _slot_state(layout, state)
        assert _oracle_state(layout, slotted) == state
        for tid, event, next_state in moves:
            try:
                got_event, got_state = machine.step(slotted, tid)
                got = (got_event, _oracle_state(layout, got_state))
            except VMError:
                got = (("error",), None)
            assert got == (event, next_state), (state, tid)
    return len(transitions)


def test_examples_match_the_reference_transition_function():
    """The bundled examples add barriers, events and nested sections."""
    for path in sorted(Path(__file__).resolve().parents[2].glob("examples/*.par")):
        program = compile_program(lower_program(parse(path.read_text())))
        res = explore(program)
        outcomes, states, complete = oracle_explore(program)
        assert (res.outcomes, res.states, res.complete) == (outcomes, states, complete)
        assert _successors_match_oracle(program) == states

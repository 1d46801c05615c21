"""The explorer against the reference explorer at the audit budget.

``audit`` explores each input to 20,000 states, and most of the
repository benchmark's ``audit`` inputs stop at that budget.  Here every
one of those 24 inputs (seeds 0–2) is explored by
:func:`repro.vm.explore.explore` and by the reference explorer of
``tests/vm/explore_oracle.py``, which has its own copy of the semantics
and state encoding: the state counts, the ``complete`` flags and the
outcome sets (errors compared by kind) must be identical, truncated
explorations included.
"""

from repro.vm.compile import compile_program
from repro.vm.explore import explore
from tests.conftest import build
from tests.property.test_vm_props import _error_kind
from tests.vm.explore_oracle import oracle_explore

#: the ``audit`` stage's exploration budget
AUDIT_STATES = 20_000


def _audit_inputs() -> dict[str, str]:
    """The 24 inputs (seeds 0-2) of the repository benchmark's ``audit``
    workload: 2-4 threads, about 70-400 lines, half race-free."""
    from perfbench.audit_loop import inputs

    return {key: src for seed in range(3) for key, src, _ in inputs(seed)}


def test_benchmark_audit_inputs_explore_as_the_reference():
    completions = set()
    for key, source in _audit_inputs().items():
        program = compile_program(build(source))
        res = explore(program, max_states=AUDIT_STATES)
        outcomes, states, complete = oracle_explore(program, max_states=AUDIT_STATES)
        assert (res.states, res.complete) == (states, complete), key
        assert _error_kind(res.outcomes) == _error_kind(outcomes), key
        completions.add(complete)
    # Both complete and budget-truncated explorations were compared.
    assert completions == {True, False}

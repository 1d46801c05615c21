"""Compiled evaluators against the reference semantics.

:func:`repro.vm.machine.compile_expr` turns an expression into a closure
once per program; :func:`repro.opt.folding.eval_expr_concrete` stays the
reference.  The two must agree on every value and raise the same
:class:`VMError` on every fault.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.hb import HBTracker
from repro.errors import VMError
from repro.ir.expr import EBin, ECall, EConst, EUn, EVar
from repro.opt.folding import BINARY_OPS, UNARY_OPS, eval_expr_concrete
from repro.vm import explore
from repro.vm.compile import compile_program
from repro.vm.machine import VirtualMachine, compile_expr, default_functions, run_random
from tests.conftest import build

_NAMES = ["a", "b", "c"]
#: the memory slot of every variable the expressions below read
_SLOTS = {name: i for i, name in enumerate(_NAMES + ["unset"])}

_leaves = st.one_of(
    st.integers(-6, 6).map(EConst),
    st.sampled_from(_NAMES + ["unset"]).map(EVar),
)
_exprs = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(EBin, st.sampled_from(sorted(BINARY_OPS)), sub, sub),
        st.builds(EUn, st.sampled_from(sorted(UNARY_OPS)), sub),
        st.builds(ECall, st.sampled_from(["f", "g"]), st.lists(sub, max_size=3)),
    ),
    max_leaves=12,
)
_memories = st.fixed_dictionaries({name: st.integers(-9, 9) for name in _NAMES})


def _outcome(fn):
    """The value of ``fn()`` with its type, or the fault it raises."""
    try:
        value = fn()
    except VMError as exc:
        return ("error", str(exc))
    return (type(value), value)


def _compiled(expr, memory, functions=default_functions):
    """``expr`` compiled against :data:`_SLOTS`, evaluated on ``memory``
    laid out as a memory tuple."""
    values = tuple(memory.get(name, 0) for name in _SLOTS)
    return compile_expr(expr, _SLOTS)(values, functions)


def _both(expr, memory):
    compiled = _outcome(lambda: _compiled(expr, memory))
    reference = _outcome(
        lambda: eval_expr_concrete(
            expr, lambda name: memory.get(name, 0), default_functions
        )
    )
    return compiled, reference


@given(_exprs, _memories)
@settings(max_examples=300, deadline=None)
def test_compiled_closures_match_the_reference(expr, memory):
    compiled, reference = _both(expr, memory)
    assert compiled == reference


@pytest.mark.parametrize(
    "expr, message",
    [
        (EBin("/", EVar("a"), EConst(0)), "division by zero"),
        (EBin("%", EVar("a"), EBin("-", EVar("b"), EVar("b"))), "modulo by zero"),
        # no short circuit: the right operand's fault still surfaces
        (EBin("&&", EConst(0), EBin("/", EConst(1), EConst(0))), "division by zero"),
        (ECall("f", [EBin("%", EConst(3), EVar("unset"))]), "modulo by zero"),
    ],
)
def test_division_and_modulo_by_zero_raise_the_reference_error(expr, message):
    compiled, reference = _both(expr, {"a": 7, "b": 2})
    assert compiled == reference == ("error", message)


@pytest.mark.parametrize(
    "expr, message",
    [
        (EBin("**", EConst(2), EConst(3)), "unknown binary operator '**'"),
        (EBin("**", EVar("a"), EBin("+", EVar("b"), EConst(1))), "unknown binary operator '**'"),
        (EUn("~", EVar("a")), "unknown unary operator '~'"),
        # operands evaluate first: their fault wins over the operator's
        (EBin("**", EBin("/", EConst(1), EConst(0)), EConst(1)), "division by zero"),
    ],
)
def test_unknown_operator_raises_when_evaluated_not_when_compiled(expr, message):
    compile_expr(expr, _SLOTS)  # compiles without complaint
    compiled, reference = _both(expr, {"a": 7, "b": 2})
    assert compiled == reference == ("error", message)


def test_custom_binding_receives_evaluated_arguments():
    seen = []

    def binding(name, args):
        seen.append((name, args))
        return len(args)

    expr = EBin("+", ECall("h", [EVar("a"), EConst(-2)]), ECall("k", []))
    assert _compiled(expr, {"a": 5}, binding) == 2
    assert seen == [("h", [5, -2]), ("k", [])]


RACY = """
cobegin
begin lock(L); x = x + 1; unlock(L); y = x * 2; end
begin x = x - 3; if (x < 0) { y = -x; } print(x, y); end
coend
print(x / 2, y % 3);
"""


def test_a_program_that_ran_still_pickles_and_runs_the_same():
    """The per-program evaluator and access tables hold closures; they
    stay out of the pickle, and a round trip rebuilds them."""
    program = compile_program(build(RACY))
    before = [run_random(program, seed=s).output_key() for s in range(6)]
    explored = explore(program)
    VirtualMachine(program, seed=1, hb=HBTracker(program)).run()
    assert {"machine", "accesses"} <= set(program._derived)

    copy = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy._derived == {}
    assert copy.disassemble() == program.disassemble()
    assert [run_random(copy, seed=s).output_key() for s in range(6)] == before
    again = explore(copy)
    assert (again.outcomes, again.states) == (explored.outcomes, explored.states)
    hb_a, hb_b = HBTracker(program), HBTracker(copy)
    VirtualMachine(program, seed=3, hb=hb_a).run()
    VirtualMachine(copy, seed=3, hb=hb_b).run()
    assert [r.as_dict() for r in hb_a.races] == [r.as_dict() for r in hb_b.races]

"""Expression evaluation and folding over the constant lattice.

Integer semantics are C-like and *identical* to the VM's
(:mod:`repro.vm.machine`): truncating division/modulo, 0/1 comparisons
and logical operators, no short-circuit evaluation.  Division or modulo
by zero is a runtime error, so folding refuses to evaluate it
(``BOTTOM``) and leaves the fault to the execution that actually reaches
it.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.errors import VMError
from repro.ir.expr import EBin, ECall, EConst, EUn, EVar, IRExpr
from repro.opt.lattice import BOTTOM, TOP, ConstValue, LatticeValue

__all__ = [
    "BINARY_OPS",
    "UNARY_OPS",
    "apply_binop",
    "apply_unop",
    "default_functions",
    "eval_expr",
    "eval_expr_concrete",
]


def c_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise VMError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == c_div(a,b)*b + c_mod(a,b)``."""
    if b == 0:
        raise VMError("modulo by zero")
    return a - c_div(a, b) * b


#: the concrete meaning of each binary operator
BINARY_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": c_div,
    "%": c_mod,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}

#: the concrete meaning of each unary operator
UNARY_OPS: dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "!": lambda a: int(not a),
}


def apply_binop(op: str, a: int, b: int) -> int:
    """Concrete binary evaluation (shared with the VM)."""
    fn = BINARY_OPS.get(op)
    if fn is None:
        raise VMError(f"unknown binary operator {op!r}")
    return fn(a, b)


def apply_unop(op: str, a: int) -> int:
    """Concrete unary evaluation (shared with the VM)."""
    fn = UNARY_OPS.get(op)
    if fn is None:
        raise VMError(f"unknown unary operator {op!r}")
    return fn(a)


def eval_expr(
    expr: IRExpr,
    value_of_var: Callable[[EVar], LatticeValue],
) -> LatticeValue:
    """Abstract evaluation over the lattice.

    Any TOP operand makes the result TOP (optimistically awaiting more
    information); otherwise any BOTTOM operand makes it BOTTOM.  Calls
    are opaque: always BOTTOM.
    """
    if isinstance(expr, EConst):
        return ConstValue(expr.value)
    if isinstance(expr, EVar):
        return value_of_var(expr)
    if isinstance(expr, ECall):
        return BOTTOM
    if isinstance(expr, EUn):
        inner = eval_expr(expr.operand, value_of_var)
        if inner is TOP or inner is BOTTOM:
            return inner
        assert isinstance(inner, ConstValue)
        return ConstValue(apply_unop(expr.op, inner.value))
    if isinstance(expr, EBin):
        left = eval_expr(expr.left, value_of_var)
        right = eval_expr(expr.right, value_of_var)
        if left is TOP or right is TOP:
            return TOP
        if left is BOTTOM or right is BOTTOM:
            return BOTTOM
        assert isinstance(left, ConstValue) and isinstance(right, ConstValue)
        if expr.op in ("/", "%") and right.value == 0:
            return BOTTOM  # leave the fault for runtime
        return ConstValue(apply_binop(expr.op, left.value, right.value))
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def fold_expr(expr: IRExpr) -> IRExpr:
    """Structurally fold constant subexpressions.

    Rebuilds the tree bottom-up, collapsing operator nodes whose
    operands are all literals; division/modulo by a literal zero is left
    intact (it is a runtime fault, not a compile-time value).
    """
    if isinstance(expr, EUn):
        inner = fold_expr(expr.operand)
        if isinstance(inner, EConst):
            return EConst(apply_unop(expr.op, inner.value))
        return EUn(expr.op, inner) if inner is not expr.operand else expr
    if isinstance(expr, EBin):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if isinstance(left, EConst) and isinstance(right, EConst):
            if not (expr.op in ("/", "%") and right.value == 0):
                return EConst(apply_binop(expr.op, left.value, right.value))
        if left is expr.left and right is expr.right:
            return expr
        return EBin(expr.op, left, right)
    if isinstance(expr, ECall):
        args = [fold_expr(a) for a in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return ECall(expr.func, args)
    return expr


def default_functions(name: str, args: list[int]) -> int:
    """Deterministic stand-in for opaque pure functions: the value of a
    call in expression position, wherever a program runs.

    Any pure deterministic binding is semantically admissible (the
    static analyses treat calls as unknown values); this one mixes the
    name and arguments so different calls give different values.
    """
    acc = sum(ord(c) for c in name) * 131
    for i, a in enumerate(args):
        acc = acc * 31 + (i + 1) * a
    return acc % 1009 - 504


def eval_expr_concrete(expr: IRExpr, env: Callable[[str], int]) -> int:
    """Concrete evaluation; ``env`` maps names to ints, and a call
    evaluates through :func:`default_functions`.

    The reference semantics of the VM: :func:`repro.vm.machine.compile_expr`
    compiles an expression to a closure that must agree with this
    function on every input, error messages included.
    """
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        return env(expr.name)
    if isinstance(expr, ECall):
        return default_functions(expr.func, [eval_expr_concrete(a, env) for a in expr.args])
    if isinstance(expr, EUn):
        return apply_unop(expr.op, eval_expr_concrete(expr.operand, env))
    if isinstance(expr, EBin):
        left = eval_expr_concrete(expr.left, env)
        right = eval_expr_concrete(expr.right, env)
        return apply_binop(expr.op, left, right)
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

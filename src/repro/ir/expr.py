"""IR expression trees.

IR expressions mirror AST expressions, with one crucial difference:
variable references are :class:`EVar` nodes that double as *use sites*.
After SSA renaming every :class:`EVar` carries a ``version`` and a
``def_site`` link (the factored use-def chain, ``chain(u)`` in the
paper's Algorithm A.4).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.lang import ast_nodes as ast
from repro.lang.tokens import NON_ASSOCIATIVE, PRECEDENCE, UNARY_PRECEDENCE

__all__ = [
    "EBin",
    "ECall",
    "EConst",
    "EUn",
    "EVar",
    "IRExpr",
    "expr_from_ast",
    "expr_to_str",
    "iter_expr_vars",
    "map_expr_vars",
    "substitute_vars",
]


class IRExpr:
    """Base class for IR expressions."""

    __slots__ = ()


class EConst(IRExpr):
    """Integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __repr__(self) -> str:
        return f"EConst({self.value})"


class EVar(IRExpr):
    """A variable *use site*.

    Attributes
    ----------
    name:
        Base variable name (e.g. ``a``).
    version:
        SSA version, or ``None`` before SSA construction (and for π-term
        temporaries, which are single-assignment by construction).
    def_site:
        After SSA renaming, the defining statement (:class:`SAssign`,
        :class:`Phi`, :class:`Pi`) or the sentinel entry definition.
        This is the FUD chain link ``chain(u)``.
    """

    __slots__ = ("name", "version", "def_site")

    def __init__(
        self,
        name: str,
        version: Optional[int] = None,
        def_site: object = None,
    ) -> None:
        self.name = name
        self.version = version
        self.def_site = def_site

    @property
    def ssa_name(self) -> str:
        """The display name: ``a3`` in SSA form, ``a`` otherwise."""
        if self.version is None:
            return self.name
        return f"{self.name}{self.version}"

    def same_ssa(self, other: "EVar") -> bool:
        """True when both refer to the same SSA name."""
        return self.name == other.name and self.version == other.version

    def copy(self) -> "EVar":
        """A fresh use site referring to the same SSA name and def."""
        return EVar(self.name, self.version, self.def_site)

    def __repr__(self) -> str:
        return f"EVar({self.ssa_name!r})"


class EBin(IRExpr):
    """Binary operation with C-like integer semantics."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: IRExpr, right: IRExpr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"EBin({self.op!r}, {self.left!r}, {self.right!r})"


class EUn(IRExpr):
    """Unary operation (``-`` or ``!``)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: IRExpr) -> None:
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"EUn({self.op!r}, {self.operand!r})"


class ECall(IRExpr):
    """Opaque pure call in expression position; value is unknown."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[IRExpr]) -> None:
        self.func = func
        self.args = list(args)

    def __repr__(self) -> str:
        return f"ECall({self.func!r}, {self.args!r})"


# ---------------------------------------------------------------------------
# Conversion and traversal utilities
# ---------------------------------------------------------------------------


def expr_from_ast(node: ast.Expr, rename: Callable[[str], str] | None = None) -> IRExpr:
    """Convert an AST expression to an IR expression.

    ``rename`` maps source variable names to IR names (used to mangle
    ``private`` declarations during lowering).
    """
    if isinstance(node, ast.IntLit):
        return EConst(node.value)
    if isinstance(node, ast.Name):
        name = rename(node.ident) if rename else node.ident
        return EVar(name)
    if isinstance(node, ast.BinOp):
        return EBin(
            node.op,
            expr_from_ast(node.left, rename),
            expr_from_ast(node.right, rename),
        )
    if isinstance(node, ast.UnaryOp):
        return EUn(node.op, expr_from_ast(node.operand, rename))
    if isinstance(node, ast.CallExpr):
        return ECall(node.func, [expr_from_ast(a, rename) for a in node.args])
    raise TypeError(f"cannot lower AST expression {node!r}")


def iter_expr_vars(expr: IRExpr) -> Iterator[EVar]:
    """Yield every :class:`EVar` use site in ``expr`` (left-to-right)."""
    if isinstance(expr, EVar):
        yield expr
    elif isinstance(expr, EBin):
        yield from iter_expr_vars(expr.left)
        yield from iter_expr_vars(expr.right)
    elif isinstance(expr, EUn):
        yield from iter_expr_vars(expr.operand)
    elif isinstance(expr, ECall):
        for arg in expr.args:
            yield from iter_expr_vars(arg)
    # EConst: no vars


def map_expr_vars(expr: IRExpr, fn: Callable[[EVar], IRExpr]) -> IRExpr:
    """Rebuild ``expr`` with every :class:`EVar` replaced by ``fn(var)``.

    Nodes are reused when unchanged, so shared subtrees stay shared.
    """
    if isinstance(expr, EVar):
        return fn(expr)
    if isinstance(expr, EBin):
        left = map_expr_vars(expr.left, fn)
        right = map_expr_vars(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return EBin(expr.op, left, right)
    if isinstance(expr, EUn):
        operand = map_expr_vars(expr.operand, fn)
        if operand is expr.operand:
            return expr
        return EUn(expr.op, operand)
    if isinstance(expr, ECall):
        args = [map_expr_vars(a, fn) for a in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return ECall(expr.func, args)
    return expr


def substitute_vars(expr: IRExpr, replacement: Callable[[EVar], IRExpr | None]) -> IRExpr:
    """Like :func:`map_expr_vars` but ``None`` means "keep the var"."""

    def fn(var: EVar) -> IRExpr:
        new = replacement(var)
        return var if new is None else new

    return map_expr_vars(expr, fn)


def clone_expr(expr: IRExpr) -> IRExpr:
    """Deep-copy an expression; EVar clones keep name/version/def_site."""
    if isinstance(expr, EConst):
        return EConst(expr.value)
    if isinstance(expr, EVar):
        return expr.copy()
    if isinstance(expr, EBin):
        return EBin(expr.op, clone_expr(expr.left), clone_expr(expr.right))
    if isinstance(expr, EUn):
        return EUn(expr.op, clone_expr(expr.operand))
    if isinstance(expr, ECall):
        return ECall(expr.func, [clone_expr(a) for a in expr.args])
    raise TypeError(f"cannot clone expression {expr!r}")


def expr_to_str(expr: IRExpr, parent_prec: int = 0) -> str:
    """Render an IR expression using SSA display names."""
    if isinstance(expr, EConst):
        return str(expr.value)
    if isinstance(expr, EVar):
        return expr.ssa_name
    if isinstance(expr, ECall):
        args = ", ".join(expr_to_str(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, EUn):
        text = f"{expr.op}{expr_to_str(expr.operand, UNARY_PRECEDENCE)}"
        return f"({text})" if parent_prec > UNARY_PRECEDENCE else text
    if isinstance(expr, EBin):
        prec = PRECEDENCE[expr.op]
        left_prec = prec + 1 if expr.op in NON_ASSOCIATIVE else prec
        text = (
            f"{expr_to_str(expr.left, left_prec)} {expr.op} "
            f"{expr_to_str(expr.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown IR expression {expr!r}")

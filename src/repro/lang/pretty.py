"""Pretty printer: AST back to concrete syntax.

``parse(format_program(parse(src)))`` is the identity up to whitespace,
which the test suite checks property-style.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.tokens import NON_ASSOCIATIVE, PRECEDENCE, UNARY_PRECEDENCE

__all__ = ["format_expr", "format_program", "format_stmt"]


def format_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render an expression, adding parentheses only where required."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ast.UnaryOp):
        inner = format_expr(expr.operand, UNARY_PRECEDENCE)
        text = f"{expr.op}{inner}"
        if parent_prec > UNARY_PRECEDENCE:
            return f"({text})"
        return text
    if isinstance(expr, ast.BinOp):
        prec = PRECEDENCE[expr.op]
        # Comparisons are non-associative in the grammar (`a < b < c`
        # does not parse), so both operands need parens at equal
        # precedence; other operators are left-associative, so only the
        # right side does.
        left_prec = prec + 1 if expr.op in NON_ASSOCIATIVE else prec
        left = format_expr(expr.left, left_prec)
        right = format_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")


def _format_block(block: ast.Block, indent: int, lines: list[str]) -> None:
    pad = "    " * indent
    lines.append(pad + "{")
    for stmt in block.stmts:
        _format_stmt(stmt, indent + 1, lines)
    lines.append(pad + "}")


def _format_stmt(stmt: ast.Stmt, indent: int, lines: list[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            lines.append(f"{pad}private {stmt.ident} = {format_expr(stmt.init)};")
        else:
            lines.append(f"{pad}private {stmt.ident};")
    elif isinstance(stmt, ast.Assign):
        lines.append(f"{pad}{stmt.target} = {format_expr(stmt.value)};")
    elif isinstance(stmt, ast.IfStmt):
        lines.append(f"{pad}if ({format_expr(stmt.cond)})")
        _format_block(stmt.then_block, indent, lines)
        if stmt.else_block is not None:
            lines.append(f"{pad}else")
            _format_block(stmt.else_block, indent, lines)
    elif isinstance(stmt, ast.WhileStmt):
        lines.append(f"{pad}while ({format_expr(stmt.cond)})")
        _format_block(stmt.body, indent, lines)
    elif isinstance(stmt, ast.Cobegin):
        lines.append(f"{pad}cobegin")
        for i, thread in enumerate(stmt.threads):
            label = thread.label if thread.label is not None else f"T{i}"
            lines.append(f"{pad}{label}: begin")
            for s in thread.body.stmts:
                _format_stmt(s, indent + 1, lines)
            lines.append(f"{pad}end")
        lines.append(f"{pad}coend")
    elif isinstance(stmt, ast.LockStmt):
        lines.append(f"{pad}lock({stmt.lock_name});")
    elif isinstance(stmt, ast.UnlockStmt):
        lines.append(f"{pad}unlock({stmt.lock_name});")
    elif isinstance(stmt, ast.SetStmt):
        lines.append(f"{pad}set({stmt.event_name});")
    elif isinstance(stmt, ast.WaitStmt):
        lines.append(f"{pad}wait({stmt.event_name});")
    elif isinstance(stmt, ast.PrintStmt):
        args = ", ".join(format_expr(a) for a in stmt.args)
        lines.append(f"{pad}print({args});")
    elif isinstance(stmt, ast.CallStmt):
        args = ", ".join(format_expr(a) for a in stmt.args)
        lines.append(f"{pad}{stmt.func}({args});")
    elif isinstance(stmt, ast.BarrierStmt):
        lines.append(f"{pad}barrier({stmt.barrier_name});")
    elif isinstance(stmt, ast.DoAll):
        lines.append(f"{pad}doall {stmt.var} = {stmt.low} to {stmt.high}")
        _format_block(stmt.body, indent, lines)
    elif isinstance(stmt, ast.Skip):
        lines.append(f"{pad}skip;")
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def format_stmt(stmt: ast.Stmt, indent: int = 0) -> str:
    """Render a single statement (and any nested blocks)."""
    lines: list[str] = []
    _format_stmt(stmt, indent, lines)
    return "\n".join(lines)


def format_program(program: ast.Program) -> str:
    """Render a whole program as re-parseable source text."""
    lines: list[str] = []
    for stmt in program.body.stmts:
        _format_stmt(stmt, 0, lines)
    return "\n".join(lines) + "\n"

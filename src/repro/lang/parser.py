"""Parser for the toy parallel language: recursive descent for statements,
precedence climbing for expressions.

Grammar (EBNF, ``{}`` = repetition, ``[]`` = option)::

    program    = { stmt } EOF
    stmt       = decl | assign | if | while | cobegin | lock | unlock
               | set | wait | print | callstmt | skip
    decl       = "private" IDENT [ "=" expr ] ";"
    assign     = IDENT "=" expr ";"
    if         = "if" "(" expr ")" block [ "else" block ]
    while      = "while" "(" expr ")" block
    block      = "{" { stmt } "}" | "begin" { stmt } "end" | stmt
    cobegin    = "cobegin" thread { thread } "coend"
    thread     = [ IDENT ":" ] "begin" { stmt } "end"
               | [ IDENT ":" ] "{" { stmt } "}"
    lock       = "lock" "(" IDENT ")" ";"
    unlock     = "unlock" "(" IDENT ")" ";"
    set        = "set" "(" IDENT ")" ";"
    wait       = "wait" "(" IDENT ")" ";"
    print      = "print" "(" expr { "," expr } ")" ";"
    callstmt   = IDENT "(" [ expr { "," expr } ] ")" ";"
    skip       = "skip" ";"

    expr       = or
    or         = and { "||" and }
    and        = cmp { "&&" cmp }
    cmp        = add [ ("=="|"!="|"<"|"<="|">"|">=") add ]
    add        = mul { ("+"|"-") mul }
    mul        = unary { ("*"|"/"|"%") unary }
    unary      = ("-"|"!") unary | primary
    primary    = INT | IDENT | IDENT "(" [ expr { "," expr } ] ")"
               | "(" expr ")"

Operator semantics are C-like over integers; comparisons and logical
operators yield 0/1.  Binary operators associate to the left, except
comparisons, which do not associate: ``a < b < c`` is an error at the
second ``<``.

Nesting bound: a syntax tree may be at most :data:`MAX_NESTING` levels
deep.  A top-level statement is at level 0, and each statement, block,
operator, call and pair of parentheses puts what it contains one level
further down: ``if (a) { x = b + c; }`` has ``b`` at level 3.  Deeper
input is a :class:`~repro.errors.ParseError` naming the bound, so a
program that parses can be lowered, analysed and run under Python's
default recursion limit, which the later stages spend about one frame
per level of.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ParseError, SourceLocation
from repro.lang import ast_nodes as ast
from repro.lang.lexer import scan
from repro.lang.tokens import NON_ASSOCIATIVE, PRECEDENCE, UNARY_PRECEDENCE
from repro.lang.tokens import TokenKind as T

__all__ = ["MAX_NESTING", "Parser", "parse"]

#: The deepest syntax-tree level a program may use (see the module
#: docstring).  At this bound every stage still runs under the default
#: recursion limit with about a tenth of it to spare for the caller's
#: stack; a 900-term ``a + a + ...`` chain is exactly at it.
MAX_NESTING = 900

#: Binding power of each binary operator's token kind (a kind's value is
#: the operator's text); higher binds tighter.
_BINDING: dict[T, int] = {T(op): level for op, level in PRECEDENCE.items()}
#: comparisons: the one non-associative level
(_COMPARE,) = {PRECEDENCE[op] for op in NON_ASSOCIATIVE}


class Parser:
    """Parses a source string into a :class:`repro.lang.ast_nodes.Program`.

    The parser indexes the lexer's flat, EOF-terminated arrays
    (:class:`repro.lang.lexer.Scan`); it never looks past the EOF entry.
    """

    def __init__(self, source: str) -> None:
        scanned = scan(source)
        if scanned.error is not None:
            raise scanned.error
        self._kinds = scanned.kinds
        self._texts = scanned.texts
        self._lines, self._columns = scanned.positions()
        self._pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------

    def _loc(self, pos: int) -> SourceLocation:
        return SourceLocation(self._lines[pos], self._columns[pos])

    def _found(self, pos: int) -> str:
        return repr(self._texts[pos] or self._kinds[pos].value)

    def _expect(self, kind: T, what: str | None = None) -> int:
        """Consume a ``kind`` token and return its index."""
        pos = self._pos
        if self._kinds[pos] is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected!r}, found {self._found(pos)}", self._loc(pos)
            )
        self._pos = pos + 1
        return pos

    def _too_deep(self, pos: int) -> ParseError:
        return ParseError(f"nesting deeper than {MAX_NESTING} levels", self._loc(pos))

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole buffer; raises :class:`ParseError` on junk."""
        loc = self._loc(self._pos)
        kinds = self._kinds
        stmts: list[ast.Stmt] = []
        while kinds[self._pos] is not T.EOF:
            stmts.append(_STATEMENT.get(kinds[self._pos], Parser._unexpected)(self, 0))
        return ast.Program(ast.Block(stmts, loc), loc)

    def parse_stmt(self) -> ast.Stmt:
        """Parse one statement, as if at the top level."""
        return _STATEMENT.get(self._kinds[self._pos], Parser._unexpected)(self, 0)

    def parse_expr(self) -> ast.Expr:
        """Parse one expression, as if in a top-level statement."""
        return self._expr(1, 0)[0]

    # ------------------------------------------------------------------
    # statements: each takes its own nesting level
    # ------------------------------------------------------------------

    def _unexpected(self, depth: int) -> ast.Stmt:
        pos = self._pos
        raise ParseError(
            f"unexpected token {self._found(pos)} at statement start", self._loc(pos)
        )

    def _parse_ident(self, depth: int) -> ast.Stmt:
        pos = self._pos
        follow = self._kinds[pos + 1]
        if follow is T.ASSIGN:
            self._pos = pos + 2
            value = self._expr(depth + 1, 0)[0]
            self._expect(T.SEMI)
            return ast.Assign(self._texts[pos], value, self._loc(pos))
        if follow is T.LPAREN:
            # Parsed as a call expression, which takes no operator here.
            call = self._expr(depth, UNARY_PRECEDENCE)[0]
            self._expect(T.SEMI)
            return ast.CallStmt(call.func, call.args, call.location)
        raise ParseError(
            f"expected '=' or '(' after identifier {self._texts[pos]!r}",
            self._loc(pos + 1),
        )

    def _parse_decl(self, depth: int) -> ast.VarDecl:
        loc = self._loc(self._expect(T.KW_PRIVATE))
        name = self._texts[self._expect(T.IDENT, "variable name")]
        init = None
        if self._kinds[self._pos] is T.ASSIGN:
            self._pos += 1
            init = self._expr(depth + 1, 0)[0]
        self._expect(T.SEMI)
        return ast.VarDecl(name, init, loc)

    def _parse_if(self, depth: int) -> ast.IfStmt:
        loc = self._loc(self._expect(T.KW_IF))
        self._expect(T.LPAREN)
        cond = self._expr(depth + 1, 0)[0]
        self._expect(T.RPAREN)
        then_block = self._parse_block(depth + 1)
        else_block = None
        if self._kinds[self._pos] is T.KW_ELSE:
            self._pos += 1
            else_block = self._parse_block(depth + 1)
        return ast.IfStmt(cond, then_block, else_block, loc)

    def _parse_while(self, depth: int) -> ast.WhileStmt:
        loc = self._loc(self._expect(T.KW_WHILE))
        self._expect(T.LPAREN)
        cond = self._expr(depth + 1, 0)[0]
        self._expect(T.RPAREN)
        body = self._parse_block(depth + 1)
        return ast.WhileStmt(cond, body, loc)

    def _parse_block(self, depth: int) -> ast.Block:
        """Brace block, begin/end block, or a single statement.

        Statements are dispatched here rather than through
        :meth:`parse_stmt`, so each nesting level costs the parser one
        stack frame.
        """
        kinds = self._kinds
        opener = self._pos
        if depth > MAX_NESTING:
            raise self._too_deep(opener)
        inner = depth + 1
        kind = kinds[opener]
        if kind is T.LBRACE or kind is T.KW_BEGIN:
            closer = T.RBRACE if kind is T.LBRACE else T.KW_END
            self._pos = opener + 1
            stmts = []
            while kinds[self._pos] is not closer:
                if kinds[self._pos] is T.EOF:
                    what = "'{'" if kind is T.LBRACE else "'begin'"
                    raise ParseError(f"unterminated {what} block", self._loc(opener))
                if inner > MAX_NESTING:
                    raise self._too_deep(self._pos)
                stmts.append(
                    _STATEMENT.get(kinds[self._pos], Parser._unexpected)(self, inner)
                )
            self._pos += 1
            return ast.Block(stmts, self._loc(opener))
        if inner > MAX_NESTING:
            raise self._too_deep(opener)
        stmt = _STATEMENT.get(kind, Parser._unexpected)(self, inner)
        return ast.Block([stmt], stmt.location)

    def _parse_cobegin(self, depth: int) -> ast.Cobegin:
        loc = self._loc(self._expect(T.KW_COBEGIN))
        kinds = self._kinds
        threads: list[ast.ThreadBlock] = []
        while kinds[self._pos] is not T.KW_COEND:
            if kinds[self._pos] is T.EOF:
                raise ParseError("unterminated 'cobegin'", loc)
            threads.append(self._parse_thread(depth + 1))
        self._pos += 1
        if not threads:
            raise ParseError("cobegin must contain at least one thread", loc)
        return ast.Cobegin(threads, loc)

    def _parse_thread(self, depth: int) -> ast.ThreadBlock:
        kinds = self._kinds
        first = self._pos
        if depth > MAX_NESTING:
            raise self._too_deep(first)
        label = None
        if kinds[first] is T.IDENT and kinds[first + 1] is T.COLON:
            label = self._texts[first]
            self._pos = first + 2
        if kinds[self._pos] is not T.KW_BEGIN and kinds[self._pos] is not T.LBRACE:
            raise ParseError(
                "expected 'begin' or '{' to start a cobegin thread",
                self._loc(self._pos),
            )
        body = self._parse_block(depth + 1)
        return ast.ThreadBlock(label, body, self._loc(first))

    def _parse_doall(self, depth: int) -> ast.DoAll:
        """``doall i = <int> to <int> block`` — bounds must be literals
        (possibly negated), since the front-end expands the loop
        statically into a cobegin."""
        loc = self._loc(self._expect(T.KW_DOALL))
        var = self._texts[self._expect(T.IDENT, "loop variable")]
        self._expect(T.ASSIGN)
        low = self._parse_int_literal()
        self._expect(T.KW_TO)
        high = self._parse_int_literal()
        body = self._parse_block(depth + 1)
        return ast.DoAll(var, low, high, body, loc)

    def _parse_int_literal(self) -> int:
        negative = self._kinds[self._pos] is T.MINUS
        if negative:
            self._pos += 1
        literal = self._expect(T.INT, "integer literal (doall bounds are static)")
        value = int(self._texts[literal])
        return -value if negative else value

    def _parse_sync(self, ctor: Callable[..., ast.Stmt]) -> ast.Stmt:
        keyword = self._pos
        self._pos += 1
        self._expect(T.LPAREN)
        name = self._texts[self._expect(T.IDENT, "synchronization variable")]
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ctor(name, self._loc(keyword))

    def _parse_print(self, depth: int) -> ast.PrintStmt:
        loc = self._loc(self._expect(T.KW_PRINT))
        self._expect(T.LPAREN)
        args = [self._expr(depth + 1, 0)[0]]
        while self._kinds[self._pos] is T.COMMA:
            self._pos += 1
            args.append(self._expr(depth + 1, 0)[0])
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ast.PrintStmt(args, loc)

    def _parse_skip(self, depth: int) -> ast.Skip:
        keyword = self._pos
        self._pos += 1
        self._expect(T.SEMI)
        return ast.Skip(self._loc(keyword))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self, depth: int, min_binding: int) -> tuple[ast.Expr, int]:
        """Parse an expression whose root is ``depth`` levels deep and
        whose operators bind at least ``min_binding``.

        Returns the expression and its height (levels below its root).
        Operands of tighter-binding operators, parenthesised expressions,
        call arguments and unary operands recurse one level down, so the
        parser's stack grows by one frame per level of nesting.
        """
        if depth > MAX_NESTING:
            raise self._too_deep(self._pos)
        kinds = self._kinds
        texts = self._texts
        lines = self._lines
        columns = self._columns
        pos = self._pos
        kind = kinds[pos]
        if kind is T.IDENT:
            if kinds[pos + 1] is T.LPAREN:
                # The arguments are parsed here, not in a helper, so a
                # nested call costs one frame.
                self._pos = pos + 2
                args: list[ast.Expr] = []
                height = 0
                if kinds[self._pos] is not T.RPAREN:
                    while True:
                        arg, arg_height = self._expr(depth + 1, 0)
                        args.append(arg)
                        if arg_height >= height:
                            height = arg_height + 1
                        if kinds[self._pos] is not T.COMMA:
                            break
                        self._pos += 1
                self._expect(T.RPAREN)
                left: ast.Expr = ast.CallExpr(
                    texts[pos], args, SourceLocation(lines[pos], columns[pos])
                )
            else:
                self._pos = pos + 1
                left = ast.Name(texts[pos], SourceLocation(lines[pos], columns[pos]))
                height = 0
        elif kind is T.INT:
            self._pos = pos + 1
            left = ast.IntLit(int(texts[pos]), SourceLocation(lines[pos], columns[pos]))
            height = 0
        elif kind is T.LPAREN:
            self._pos = pos + 1
            left, height = self._expr(depth + 1, 0)
            self._expect(T.RPAREN)
            height += 1
        elif kind is T.MINUS or kind is T.NOT:
            self._pos = pos + 1
            operand, height = self._expr(depth + 1, UNARY_PRECEDENCE)
            left = ast.UnaryOp(texts[pos], operand, SourceLocation(lines[pos], columns[pos]))
            height += 1
        else:
            raise ParseError(
                f"unexpected token {self._found(pos)} in expression", self._loc(pos)
            )
        left_binding = UNARY_PRECEDENCE
        binding_of = _BINDING.get
        while True:
            pos = self._pos
            binding = binding_of(kinds[pos])
            if (
                binding is None
                or binding < min_binding
                or (binding == _COMPARE and left_binding <= _COMPARE)
            ):
                return left, height
            self._pos = pos + 1
            right, right_height = self._expr(depth + 1, binding + 1)
            height = (height if height > right_height else right_height) + 1
            left = ast.BinOp(texts[pos], left, right, SourceLocation(lines[pos], columns[pos]))
            if depth + height > MAX_NESTING:
                raise self._too_deep(pos)
            left_binding = binding


def _sync(ctor: Callable[..., ast.Stmt]) -> Callable[[Parser, int], ast.Stmt]:
    return lambda parser, depth: parser._parse_sync(ctor)


#: Statement parsers by the kind of the statement's first token.
_STATEMENT: dict[T, Callable[[Parser, int], ast.Stmt]] = {
    T.IDENT: Parser._parse_ident,
    T.KW_PRIVATE: Parser._parse_decl,
    T.KW_IF: Parser._parse_if,
    T.KW_WHILE: Parser._parse_while,
    T.KW_COBEGIN: Parser._parse_cobegin,
    T.KW_LOCK: _sync(ast.LockStmt),
    T.KW_UNLOCK: _sync(ast.UnlockStmt),
    T.KW_SET: _sync(ast.SetStmt),
    T.KW_WAIT: _sync(ast.WaitStmt),
    T.KW_BARRIER: _sync(ast.BarrierStmt),
    T.KW_DOALL: Parser._parse_doall,
    T.KW_PRINT: Parser._parse_print,
    T.KW_SKIP: Parser._parse_skip,
}


def parse(source: str) -> ast.Program:
    """Parse ``source`` into an AST :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(source).parse_program()

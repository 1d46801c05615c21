"""Reference parser: the one-function-per-precedence-level descent
``repro.lang.parser`` replaced, kept verbatim (over the reference lexer
in ``lexer_oracle``) so the differential tests can compare ASTs and
errors with it.  Only tests import it.

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
operators yield 0/1.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast_nodes as ast
from tests.lang.lexer_oracle import Lexer, Token
from repro.lang.tokens import TokenKind as T

__all__ = ["Parser", "parse"]

_CMP_OPS = {T.EQ, T.NE, T.LT, T.LE, T.GT, T.GE}
_ADD_OPS = {T.PLUS, T.MINUS}
_MUL_OPS = {T.STAR, T.SLASH, T.PERCENT}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, source: str) -> None:
        self._tokens = list(Lexer(source).tokens())
        self._pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _at(self, *kinds: T) -> bool:
        return self._peek().kind in kinds

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not T.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: T, what: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected!r}, found {tok.text or tok.kind.value!r}",
                tok.location,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole buffer; raises :class:`ParseError` on junk."""
        loc = self._peek().location
        stmts: list[ast.Stmt] = []
        while not self._at(T.EOF):
            stmts.append(self.parse_stmt())
        return ast.Program(ast.Block(stmts, loc), loc)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        kind = tok.kind
        if kind is T.KW_PRIVATE:
            return self._parse_decl()
        if kind is T.KW_IF:
            return self._parse_if()
        if kind is T.KW_WHILE:
            return self._parse_while()
        if kind is T.KW_COBEGIN:
            return self._parse_cobegin()
        if kind is T.KW_LOCK:
            return self._parse_sync(ast.LockStmt)
        if kind is T.KW_UNLOCK:
            return self._parse_sync(ast.UnlockStmt)
        if kind is T.KW_SET:
            return self._parse_sync(ast.SetStmt)
        if kind is T.KW_WAIT:
            return self._parse_sync(ast.WaitStmt)
        if kind is T.KW_BARRIER:
            return self._parse_sync(ast.BarrierStmt)
        if kind is T.KW_DOALL:
            return self._parse_doall()
        if kind is T.KW_PRINT:
            return self._parse_print()
        if kind is T.KW_SKIP:
            self._advance()
            self._expect(T.SEMI)
            return ast.Skip(tok.location)
        if kind is T.IDENT:
            if self._peek(1).kind is T.ASSIGN:
                return self._parse_assign()
            if self._peek(1).kind is T.LPAREN:
                return self._parse_call_stmt()
            raise ParseError(
                f"expected '=' or '(' after identifier {tok.text!r}",
                self._peek(1).location,
            )
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r} at statement start",
            tok.location,
        )

    def _parse_decl(self) -> ast.VarDecl:
        loc = self._expect(T.KW_PRIVATE).location
        name = self._expect(T.IDENT, "variable name").text
        init = None
        if self._at(T.ASSIGN):
            self._advance()
            init = self.parse_expr()
        self._expect(T.SEMI)
        return ast.VarDecl(name, init, loc)

    def _parse_assign(self) -> ast.Assign:
        name_tok = self._expect(T.IDENT)
        self._expect(T.ASSIGN)
        value = self.parse_expr()
        self._expect(T.SEMI)
        return ast.Assign(name_tok.text, value, name_tok.location)

    def _parse_if(self) -> ast.IfStmt:
        loc = self._expect(T.KW_IF).location
        self._expect(T.LPAREN)
        cond = self.parse_expr()
        self._expect(T.RPAREN)
        then_block = self._parse_block()
        else_block = None
        if self._at(T.KW_ELSE):
            self._advance()
            else_block = self._parse_block()
        return ast.IfStmt(cond, then_block, else_block, loc)

    def _parse_while(self) -> ast.WhileStmt:
        loc = self._expect(T.KW_WHILE).location
        self._expect(T.LPAREN)
        cond = self.parse_expr()
        self._expect(T.RPAREN)
        body = self._parse_block()
        return ast.WhileStmt(cond, body, loc)

    def _parse_block(self) -> ast.Block:
        """Brace block, begin/end block, or a single statement."""
        tok = self._peek()
        if tok.kind is T.LBRACE:
            self._advance()
            stmts = []
            while not self._at(T.RBRACE):
                if self._at(T.EOF):
                    raise ParseError("unterminated '{' block", tok.location)
                stmts.append(self.parse_stmt())
            self._advance()
            return ast.Block(stmts, tok.location)
        if tok.kind is T.KW_BEGIN:
            self._advance()
            stmts = []
            while not self._at(T.KW_END):
                if self._at(T.EOF):
                    raise ParseError("unterminated 'begin' block", tok.location)
                stmts.append(self.parse_stmt())
            self._advance()
            return ast.Block(stmts, tok.location)
        stmt = self.parse_stmt()
        return ast.Block([stmt], stmt.location)

    def _parse_cobegin(self) -> ast.Cobegin:
        loc = self._expect(T.KW_COBEGIN).location
        threads: list[ast.ThreadBlock] = []
        while not self._at(T.KW_COEND):
            if self._at(T.EOF):
                raise ParseError("unterminated 'cobegin'", loc)
            threads.append(self._parse_thread())
        self._advance()
        if not threads:
            raise ParseError("cobegin must contain at least one thread", loc)
        return ast.Cobegin(threads, loc)

    def _parse_thread(self) -> ast.ThreadBlock:
        tok = self._peek()
        label = None
        if tok.kind is T.IDENT and self._peek(1).kind is T.COLON:
            label = self._advance().text
            self._advance()  # ':'
        body_tok = self._peek()
        if body_tok.kind not in (T.KW_BEGIN, T.LBRACE):
            raise ParseError(
                "expected 'begin' or '{' to start a cobegin thread",
                body_tok.location,
            )
        body = self._parse_block()
        return ast.ThreadBlock(label, body, tok.location)

    def _parse_doall(self) -> ast.DoAll:
        """``doall i = <int> to <int> block`` — bounds must be literals
        (possibly negated), since the front-end expands the loop
        statically into a cobegin."""
        loc = self._expect(T.KW_DOALL).location
        var = self._expect(T.IDENT, "loop variable").text
        self._expect(T.ASSIGN)
        low = self._parse_int_literal()
        self._expect(T.KW_TO)
        high = self._parse_int_literal()
        body = self._parse_block()
        return ast.DoAll(var, low, high, body, loc)

    def _parse_int_literal(self) -> int:
        negative = False
        if self._at(T.MINUS):
            self._advance()
            negative = True
        tok = self._expect(T.INT, "integer literal (doall bounds are static)")
        value = int(tok.text)
        return -value if negative else value

    def _parse_sync(self, ctor) -> ast.Stmt:
        tok = self._advance()
        self._expect(T.LPAREN)
        name = self._expect(T.IDENT, "synchronization variable").text
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ctor(name, tok.location)

    def _parse_print(self) -> ast.PrintStmt:
        loc = self._expect(T.KW_PRINT).location
        self._expect(T.LPAREN)
        args = [self.parse_expr()]
        while self._at(T.COMMA):
            self._advance()
            args.append(self.parse_expr())
        self._expect(T.RPAREN)
        self._expect(T.SEMI)
        return ast.PrintStmt(args, loc)

    def _parse_call_stmt(self) -> ast.CallStmt:
        name_tok = self._expect(T.IDENT)
        args = self._parse_call_args()
        self._expect(T.SEMI)
        return ast.CallStmt(name_tok.text, args, name_tok.location)

    def _parse_call_args(self) -> list[ast.Expr]:
        self._expect(T.LPAREN)
        args: list[ast.Expr] = []
        if not self._at(T.RPAREN):
            args.append(self.parse_expr())
            while self._at(T.COMMA):
                self._advance()
                args.append(self.parse_expr())
        self._expect(T.RPAREN)
        return args

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(T.OR):
            op = self._advance()
            right = self._parse_and()
            left = ast.BinOp("||", left, right, op.location)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_cmp()
        while self._at(T.AND):
            op = self._advance()
            right = self._parse_cmp()
            left = ast.BinOp("&&", left, right, op.location)
        return left

    def _parse_cmp(self) -> ast.Expr:
        left = self._parse_add()
        if self._peek().kind in _CMP_OPS:
            op = self._advance()
            right = self._parse_add()
            return ast.BinOp(op.text, left, right, op.location)
        return left

    def _parse_add(self) -> ast.Expr:
        left = self._parse_mul()
        while self._peek().kind in _ADD_OPS:
            op = self._advance()
            right = self._parse_mul()
            left = ast.BinOp(op.text, left, right, op.location)
        return left

    def _parse_mul(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in _MUL_OPS:
            op = self._advance()
            right = self._parse_unary()
            left = ast.BinOp(op.text, left, right, op.location)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind in (T.MINUS, T.NOT):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(tok.text, operand, tok.location)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is T.INT:
            self._advance()
            return ast.IntLit(int(tok.text), tok.location)
        if tok.kind is T.IDENT:
            self._advance()
            if self._at(T.LPAREN):
                args = self._parse_call_args()
                return ast.CallExpr(tok.text, args, tok.location)
            return ast.Name(tok.text, tok.location)
        if tok.kind is T.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(T.RPAREN)
            return inner
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r} in expression",
            tok.location,
        )


def parse(source: str) -> ast.Program:
    """Parse ``source`` into an AST :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(source).parse_program()

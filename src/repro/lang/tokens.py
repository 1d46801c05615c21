"""Token kinds, keyword tables and operator precedence for the toy
parallel language."""

from __future__ import annotations

import enum


class TokenKind(enum.Enum):
    """Every lexical category produced by :class:`repro.lang.lexer.Lexer`."""

    # literals / identifiers
    INT = "int-literal"
    IDENT = "identifier"

    # keywords
    KW_COBEGIN = "cobegin"
    KW_COEND = "coend"
    KW_BEGIN = "begin"
    KW_END = "end"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_LOCK = "lock"
    KW_UNLOCK = "unlock"
    KW_SET = "set"
    KW_WAIT = "wait"
    KW_PRINT = "print"
    KW_PRIVATE = "private"
    KW_SKIP = "skip"
    KW_DOALL = "doall"
    KW_TO = "to"
    KW_BARRIER = "barrier"

    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    COMMA = ","
    COLON = ":"

    # operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "<eof>"


#: Keyword spellings.  The paper writes ``Lock``/``Unlock`` capitalized, so
#: keyword lookup is case-insensitive: ``Lock``, ``LOCK`` and ``lock`` all
#: lex as :data:`TokenKind.KW_LOCK`.
KEYWORDS: dict[str, TokenKind] = {
    "cobegin": TokenKind.KW_COBEGIN,
    "coend": TokenKind.KW_COEND,
    "begin": TokenKind.KW_BEGIN,
    "end": TokenKind.KW_END,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "lock": TokenKind.KW_LOCK,
    "unlock": TokenKind.KW_UNLOCK,
    "set": TokenKind.KW_SET,
    "wait": TokenKind.KW_WAIT,
    "print": TokenKind.KW_PRINT,
    "private": TokenKind.KW_PRIVATE,
    "skip": TokenKind.KW_SKIP,
    "doall": TokenKind.KW_DOALL,
    "to": TokenKind.KW_TO,
    "barrier": TokenKind.KW_BARRIER,
}

#: Two-character operators, checked before single-character ones.
TWO_CHAR_OPS: dict[str, TokenKind] = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

#: Single-character tokens.
ONE_CHAR_OPS: dict[str, TokenKind] = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}

#: Binding strength of each binary operator, by its text; higher binds
#: tighter.  The parser, the pretty printer and the IR listing read it.
PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "%": 5,
}
#: A unary operator binds tighter than every binary one.
UNARY_PRECEDENCE = 6

#: Operators the grammar does not chain: ``a < b < c`` is a parse error.
NON_ASSOCIATIVE = frozenset({"==", "!=", "<", "<=", ">", ">="})

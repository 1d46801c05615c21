"""Reference lexer: the character-at-a-time scan ``repro.lang.lexer``
replaced, kept verbatim so the differential tests can compare tokens
and errors with it.  Only tests import it.

The lexer is a single forward scan producing :class:`Token` objects with
1-based source positions.  Comments come in two forms, matching the
paper's listings: ``/* ... */`` block comments and ``// ...`` line
comments.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, ONE_CHAR_OPS, TWO_CHAR_OPS, TokenKind

__all__ = ["Lexer", "Token", "TokenKind", "tokenize"]


class Token:
    """A single lexeme with its kind, text and source location."""

    __slots__ = ("kind", "text", "location")

    def __init__(self, kind: TokenKind, text: str, location: SourceLocation) -> None:
        self.kind = kind
        self.text = text
        self.location = location

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Token)
            and self.kind == other.kind
            and self.text == other.text
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text))


class Lexer:
    """Tokenizes a source string.

    Usage::

        tokens = list(Lexer("a = 1;").tokens())
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level scanning helpers ------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return "\0"

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    # -- public API -----------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with a single EOF."""
        while True:
            self._skip_trivia()
            loc = self._location()
            if self.pos >= len(self.source):
                yield Token(TokenKind.EOF, "", loc)
                return
            ch = self._peek()
            if ch.isdigit():
                yield self._lex_int(loc)
            elif ch.isalpha() or ch == "_":
                yield self._lex_word(loc)
            else:
                yield self._lex_operator(loc)

    def _lex_int(self, loc: SourceLocation) -> Token:
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        text = self.source[start : self.pos]
        if self._peek().isalpha() or self._peek() == "_":
            raise LexError(f"malformed number starting with {text!r}", loc)
        return Token(TokenKind.INT, text, loc)

    def _lex_word(self, loc: SourceLocation) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = KEYWORDS.get(text.lower())
        if kind is not None:
            return Token(kind, text, loc)
        return Token(TokenKind.IDENT, text, loc)

    def _lex_operator(self, loc: SourceLocation) -> Token:
        two = self.source[self.pos : self.pos + 2]
        if two in TWO_CHAR_OPS:
            self._advance(2)
            return Token(TWO_CHAR_OPS[two], two, loc)
        one = self._peek()
        if one in ONE_CHAR_OPS:
            self._advance()
            return Token(ONE_CHAR_OPS[one], one, loc)
        raise LexError(f"unexpected character {one!r}", loc)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper returning the full token list (EOF included)."""
    return list(Lexer(source).tokens())

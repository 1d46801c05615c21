"""Compiled-pattern lexer for the toy parallel language.

One module-level regular expression, :data:`_TOKEN`, matches a token
together with the trivia in front of it (whitespace and both comment
styles of the paper's listings: ``/* ... */`` and ``// ...``), so a
source is scanned with one ``match`` per token and no loop over its
characters.  The scan yields flat per-token arrays (:class:`Scan`):
the parser reads those directly, and :class:`Token` objects are built
only for callers of :meth:`Lexer.tokens` / :func:`tokenize`.

Lexical rules:

* whitespace is ``' '``, ``'\\t'``, ``'\\r'`` and ``'\\n'``; only
  ``'\\n'`` starts a line, and every other character is one column;
* an identifier starts with a letter (``str.isalpha``) or ``_`` and
  continues with letters, digits or ``_`` (``str.isalnum``); keywords
  are matched case-insensitively (``KEYWORDS[text.lower()]``);
* an integer is a run of decimal digits (``str.isdecimal``, what
  ``int()`` reads, so ``١٢`` is 12); a digit run followed by a letter
  or ``_`` is a malformed number, and a digit that is not decimal
  (``²``) is an unexpected character;
* an unterminated ``/*`` is reported at its start.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import repeat, takewhile
from operator import sub
from sys import intern
from typing import Iterator, Optional

from repro.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, ONE_CHAR_OPS, TWO_CHAR_OPS, TokenKind

__all__ = ["Lexer", "Scan", "Token", "TokenKind", "scan", "tokenize"]

#: Leading trivia, then the token: a word (identifier, keyword or
#: number — ``\w`` is exactly ``isalnum()`` or ``_``), a two-character
#: operator, an unterminated ``/*`` with the rest of the source (a
#: terminated one is trivia), any other single character, or the end of
#: the source.  Taking the rest ends the scan at the first unterminated
#: comment, so no later ``/*`` is searched for its end again.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*(?s:.*?)\*/)[ \t\r\n]*)*"
    r"(\w+|==|!=|<=|>=|&&|\|\||/\*(?s:.*)|.|\Z)"
)

_NEWLINE = re.compile("\n")

#: Every spelling whose kind does not depend on context.
_FIXED: dict[str, TokenKind] = {**KEYWORDS, **TWO_CHAR_OPS, **ONE_CHAR_OPS}


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


class Scan:
    """A scanned source as flat arrays, one entry per token.

    ``kinds[i]``, ``texts[i]`` and ``starts[i]`` (offset into the
    source) describe token ``i``; the last entry is the EOF token.  If
    the source does not lex, the arrays hold the tokens before the
    offending one and ``error`` is the :class:`LexError`.
    """

    __slots__ = ("kinds", "texts", "starts", "error", "_newlines")

    def __init__(
        self,
        source: str,
        kinds: list[TokenKind],
        texts: list[str],
        starts: list[int],
        error: Optional[LexError],
    ) -> None:
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.error = error
        # Offsets of the newlines, after a virtual one in front of line 1:
        # the line of an offset is the number of these before it, and
        # its column the distance from the last of them.
        self._newlines = [-1, *(match.start() for match in _NEWLINE.finditer(source))]

    def location(self, offset: int) -> SourceLocation:
        """The 1-based line and column of a source offset."""
        newlines = self._newlines
        line = bisect_left(newlines, offset)
        return SourceLocation(line, offset - newlines[line - 1])

    def positions(self) -> tuple[list[int], list[int]]:
        """The line and the column of every token, as two arrays."""
        newlines = self._newlines
        starts = self.starts
        # Tokens on one line share its number's int object.
        numbers = list(range(len(newlines) + 1))
        found = map(bisect_left, repeat(newlines, len(starts)), starts)
        lines = list(map(numbers.__getitem__, found))
        previous = map(newlines.__getitem__, map((-1).__add__, lines))
        return lines, list(map(sub, starts, previous))


def scan(source: str) -> Scan:
    """Scan ``source`` into a :class:`Scan` (EOF included)."""
    texts: list[str] = []
    starts: list[int] = []
    add_text = texts.append
    add_start = starts.append
    # Interned, a word has one string object however often it occurs,
    # and so do the AST names built from it.
    for match in _TOKEN.finditer(source):
        add_text(intern(match[1]))
        add_start(match.start(1))
    # Kinds by spelling: the fixed ones, plus each distinct word once.
    kind_of = dict(_FIXED)
    for text in set(texts).difference(kind_of):
        kind_of[text] = _word_kind(text)
    kinds = list(map(kind_of.__getitem__, texts))
    if None in kinds:
        bad = kinds.index(None)
        result = Scan(source, kinds[:bad], texts[:bad], starts[:bad], None)
        message, offset = _word_error(texts[bad], starts[bad], result)
        result.error = LexError(message, result.location(offset))
        return result
    # The first empty match is the end; ``finditer`` may add another.
    end = texts.index("") + 1
    del kinds[end:], texts[end:], starts[end:]
    return Scan(source, kinds, texts, starts, None)


def _word_kind(text: str) -> Optional[TokenKind]:
    """The kind of a spelling not in :data:`_FIXED`; None if it is no
    token."""
    first = text[:1]
    if first.isalpha() or first == "_":
        return KEYWORDS.get(text.lower(), TokenKind.IDENT)
    if text.isdecimal():
        return TokenKind.INT
    if not text:
        return TokenKind.EOF
    return None


def _word_error(text: str, start: int, result: Scan) -> tuple[str, int]:
    """Message and offset of the error at a token that is no
    identifier, number or operator.

    A digit run (``str.isdigit``, which takes in ``²``) followed by a
    letter or ``_`` is a malformed number.  Otherwise the first
    character that is neither a decimal digit nor part of a token is
    unexpected; a decimal run in front of it is an INT token, appended
    to ``result``.
    """
    if text.startswith("/*"):
        return "unterminated block comment", start
    digits = "".join(takewhile(str.isdigit, text))
    after = text[len(digits) : len(digits) + 1]
    if digits and (after.isalpha() or after == "_"):
        return f"malformed number starting with {digits!r}", start
    decimal = len("".join(takewhile(str.isdecimal, text)))
    if decimal:
        result.kinds.append(TokenKind.INT)
        result.texts.append(text[:decimal])
        result.starts.append(start)
    return f"unexpected character {text[decimal]!r}", start + decimal


class Lexer:
    """Tokenizes a source string.

    Usage::

        tokens = list(Lexer("a = 1;").tokens())
    """

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with a single EOF.

        A source that does not lex yields the tokens before the error,
        then raises its :class:`LexError`.
        """
        result = scan(self.source)
        for kind, text, line, column in zip(result.kinds, result.texts, *result.positions()):
            yield Token(kind, text, SourceLocation(line, column))
        if result.error is not None:
            raise result.error


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper returning the full token list (EOF included)."""
    return list(Lexer(source).tokens())

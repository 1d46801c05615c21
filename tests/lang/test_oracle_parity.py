"""The compiled-pattern lexer and the climbing parser ≡ the old front end.

``lexer_oracle`` and ``parser_oracle`` keep the character-at-a-time
lexer and the one-function-per-precedence-level parser that
``repro.lang`` replaced.  On every input the new front end must give
the same tokens ``(kind, text, line, column)`` and the same AST (node
types, fields and locations), or the same error ``(type, message,
location)``.  The only differences allowed are the two fixed crashes,
each checked exactly where it applies:

1. a digit that is not decimal (``²``).  The oracle lexes a run of
   ``str.isdigit`` characters as an INT and its parser then crashes in
   ``int()``; the lexer now ends at the first non-decimal digit with an
   ``unexpected character`` error, after an INT for any decimal digits
   in front of it (:func:`expected_tokens`).
2. nesting too deep for the oracle parser's recursion, which crashed
   with ``RecursionError``; the new parser either parses the input or
   rejects it with the nesting-bound ``ParseError``
   (:func:`assert_parsers_agree`).
"""

from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import Lexer
from repro.lang.parser import MAX_NESTING, parse
from repro.lang.tokens import KEYWORDS, ONE_CHAR_OPS, TWO_CHAR_OPS, TokenKind as T
from repro.synth import GeneratorConfig, generate_source
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE
from tests.lang.lexer_oracle import Lexer as OracleLexer
from tests.lang.parser_oracle import parse as oracle_parse

ROOT = Path(__file__).resolve().parents[2]
FILES = sorted((ROOT / "examples").glob("*.par")) + sorted(
    (ROOT / "perfbench" / "corpus").glob("*.par")
)
SOURCES = {"figure1": FIGURE1_SOURCE, "figure2": FIGURE2_SOURCE}
SOURCES.update((str(p.relative_to(ROOT)), p.read_text()) for p in FILES)


def _error(exc):
    return (type(exc).__name__, str(exc), exc.location.line, exc.location.column)


def tokens(lexer_class, source):
    """Every token as ``(kind, text, line, column)``, then any error."""
    out = []
    try:
        for tok in lexer_class(source).tokens():
            out.append((tok.kind, tok.text, tok.location.line, tok.location.column))
    except LexError as exc:
        out.append(_error(exc))
    return out


def _non_decimal_int(stream):
    """Index of the first INT token ``int()`` cannot read, or None."""
    for index, entry in enumerate(stream):
        if entry[0] is T.INT and not entry[1].isdecimal():
            return index
    return None


def expected_tokens(want):
    """The oracle's tokens ``want``, with fixed crash 1 applied."""
    bad = _non_decimal_int(want)
    if bad is None:
        return want
    _, text, line, column = want[bad]
    decimal = "".join(takewhile(str.isdecimal, text))
    fixed = want[:bad]
    if decimal:
        fixed.append((T.INT, decimal, line, column))
    column += len(decimal)
    message = f"unexpected character {text[len(decimal)]!r}"
    fixed.append(("LexError", f"{line}:{column}: {message}", line, column))
    return fixed


def _fields(cls):
    return [
        name
        for klass in reversed(cls.__mro__)
        for name in getattr(klass, "__slots__", ())
        if name != "location"
    ]


def dump(node):
    """Node types, fields and locations in preorder, without recursion."""
    out = []
    stack = [node]
    fields_of = {}
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Node):
            cls = type(item)
            loc = item.location
            out.append((cls.__name__, loc.line, loc.column))
            fields = fields_of.get(cls)
            if fields is None:
                fields = fields_of[cls] = _fields(cls)
            for name in reversed(fields):
                stack.append(getattr(item, name))
                stack.append(name)
        elif isinstance(item, list):
            out.append(("list", len(item)))
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def _parsed(parser, source):
    try:
        return dump(parser(source))
    except (LexError, ParseError) as exc:
        return _error(exc)


def assert_front_ends_agree(source):
    oracle_tokens = tokens(OracleLexer, source)
    expected = expected_tokens(oracle_tokens)
    assert tokens(Lexer, source) == expected
    if expected is not oracle_tokens:
        # Fixed crash 1: the parser stops at the lexer's error.
        assert _parsed(parse, source) == expected[-1]
    else:
        assert_parsers_agree(source)


def assert_parsers_agree(source):
    """Equal ASTs or errors, on a source without fixed crash 1."""
    got = _parsed(parse, source)
    try:
        want = _parsed(oracle_parse, source)
    except RecursionError:
        # Fixed crash 2.
        if isinstance(got, tuple):
            assert got[:2] == (
                "ParseError",
                f"{got[2]}:{got[3]}: nesting deeper than {MAX_NESTING} levels",
            )
        return
    assert got == want


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_examples_and_corpus(name):
    assert_front_ends_agree(SOURCES[name])


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_golden_ladder_inputs(workload):
    from perfbench.compile_loop import LADDERS, POOL, ladder, load_golden

    golden = load_golden()
    checked = 0
    for index in range(POOL):
        for key, source in ladder(workload, index):
            assert key in golden
            assert_front_ends_agree(source)
            checked += 1
    assert checked == POOL * len(LADDERS[workload])


# -- hypothesis -------------------------------------------------------------

_SPELLINGS = sorted(KEYWORDS) + sorted(TWO_CHAR_OPS) + sorted(ONE_CHAR_OPS)
_WORDS = [
    "a", "b", "x", "T0", "f", "_t", "0", "7", "42", "007", "LOCK", "Begin",
    "coEnd", "é", "ñ1", "١٢", "²", "1²", "½", "12abc", "1_",
]
_GLUE = ["", " ", "\n", "\t", "\r\n", "// note\n", "/* c */", "/*\n*/", "/*", "@", "&", "|"]
token_soup = st.lists(
    st.tuples(st.sampled_from(_SPELLINGS + _WORDS), st.sampled_from(_GLUE)),
    max_size=40,
).map(lambda parts: "".join(word + glue for word, glue in parts))


@settings(max_examples=300, deadline=None)
@given(source=token_soup)
def test_random_token_sequences(source):
    assert_front_ends_agree(source)


@settings(max_examples=300, deadline=None)
@given(source=st.text(max_size=60))
def test_arbitrary_unicode_text(source):
    assert_front_ends_agree(source)


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.text(alphabet="xa1(-!+*<=&|) ", max_size=20),
    text=st.text(max_size=12),
)
def test_unicode_inside_a_statement(prefix, text):
    assert_front_ends_agree(f"x = {prefix}{text};\n")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_threads=st.integers(1, 4),
    stmts=st.integers(1, 12),
    expr_depth=st.integers(1, 4),
    p_if=st.floats(0.0, 0.5),
    p_while=st.floats(0.0, 0.3),
    p_call=st.floats(0.0, 0.3),
    n_barriers=st.integers(0, 2),
    n_events=st.integers(0, 2),
)
def test_generated_programs(
    seed, n_threads, stmts, expr_depth, p_if, p_while, p_call, n_barriers, n_events
):
    source = generate_source(
        GeneratorConfig(
            seed=seed,
            n_threads=n_threads,
            stmts_per_thread=stmts,
            expr_depth=expr_depth,
            p_if=p_if,
            p_while=p_while,
            p_call=p_call,
            n_barriers=n_barriers,
            n_events=n_events,
        )
    )
    assert_front_ends_agree(source)


# -- the fixed crashes, pinned ----------------------------------------------


@pytest.mark.parametrize(
    "source, bad_column",
    [("x = ²;", 5), ("x = 1²;", 6), ("x = 12²3;", 7), ("print(²);", 7)],
)
def test_non_decimal_digit_is_the_one_lexer_difference(source, bad_column):
    with pytest.raises(ValueError):
        oracle_parse(source)
    with pytest.raises(LexError) as info:
        parse(source)
    assert (info.value.location.line, info.value.location.column) == (1, bad_column)
    assert_front_ends_agree(source)


def test_deep_parentheses_are_the_one_parser_difference():
    source = "x = " + "(" * 130 + "a" + ")" * 130 + ";"
    with pytest.raises(RecursionError):
        oracle_parse(source)
    assert_parsers_agree(source)
    assert isinstance(parse(source).body.stmts[0].value, ast.Name)


def test_comparisons_do_not_associate():
    for source in ("x = a < b < c;", "x = a && b < c < d;", "x = (a == b != c);"):
        assert isinstance(_parsed(oracle_parse, source), tuple)
        assert_parsers_agree(source)

"""Front-end inputs that once crashed with ``E_INTERNAL`` are typed errors.

* A digit that is not decimal (``²``) is an unexpected character, not an
  INT that ``int()`` cannot read; decimal digits of any script (``١٢``)
  still read as numbers.
* Nesting deeper than :data:`repro.lang.parser.MAX_NESTING` is a
  ``ParseError`` naming the bound.  At the bound, every wire stage runs
  under the default recursion limit, for each of the three shapes that
  nest: parentheses, statement blocks and left-associative chains.
* An unterminated ``/*`` ends the scan: a source of many of them is
  reported at the first in linear time.
"""

import sys
import time

import pytest

from repro import api
from repro.cli import main
from repro.errors import E_PARSE, LexError, ParseError, error_code, exit_code_for
from repro.lang import ast_nodes as ast
from repro.lang.parser import MAX_NESTING, parse

BOUND_MESSAGE = f"nesting deeper than {MAX_NESTING} levels"


def parens(levels):
    """``x = ((…(a)…));`` with ``a`` at ``levels``: one per parenthesis."""
    n = levels - 1
    return "x = " + "(" * n + "a" + ")" * n + ";\nprint(x);\n"


def blocks(levels):
    """Nested ``if (a) {`` blocks whose innermost leaf is at ``levels``:
    each if and its block are one level each, so an even ``levels``
    ends in ``skip;`` and an odd one in ``x = 1;`` (its ``1`` one deeper)."""
    n, odd = divmod(levels, 2)
    inner = "x = 1;" if odd else "skip;"
    return "if (a) {" * n + inner + "}" * n + "\nprint(x);\n"


def chain(levels):
    """``x = a + a + …;`` with ``levels`` terms: the first ``a`` sits
    below ``levels - 1`` operators and the assignment."""
    return "x = " + " + ".join(["a"] * levels) + ";\nprint(x);\n"


SHAPES = {"parens": parens, "blocks": blocks, "chain": chain}


class TestNonDecimalDigits:
    @pytest.mark.parametrize(
        "source, column",
        [("x = ²;", 5), ("x = 1²;", 6), ("print(³);", 7)],
    )
    def test_is_a_typed_lex_error(self, source, column):
        with pytest.raises(LexError) as info:
            api.compile_source(source, "diagnostics")
        assert error_code(info.value) == E_PARSE
        assert (info.value.location.line, info.value.location.column) == (1, column)
        assert "unexpected character" in str(info.value)

    def test_cli_exits_with_the_input_error_code(self, tmp_path, capsys):
        path = tmp_path / "digit.par"
        path.write_text("x = ²;\n", encoding="utf-8")
        assert main(["diagnose", str(path)]) == exit_code_for(E_PARSE) == 3
        err = capsys.readouterr().err
        assert "unexpected character '²'" in err
        assert "Traceback" not in err

    def test_decimal_digits_of_any_script_still_read(self):
        value = parse("x = ١٢;").body.stmts[0].value
        assert isinstance(value, ast.IntLit) and value.value == 12
        result = api.compile_source("x = ١٢;\nprint(x + 1);\n", "optimized")
        assert "13" in result.listing


class TestUnterminatedComment:
    def test_many_unterminated_comments_fail_fast_at_the_first(self):
        # Searching each ``/*`` for its end again would be quadratic:
        # tens of seconds for this source.
        source = "/*a" * 50_000
        started = time.perf_counter()
        with pytest.raises(LexError) as info:
            api.compile_source(source, "analyze")
        assert time.perf_counter() - started < 2.0
        assert str(info.value).endswith("unterminated block comment")
        assert (info.value.location.line, info.value.location.column) == (1, 1)

    def test_reported_after_a_closed_comment(self):
        with pytest.raises(LexError) as info:
            api.compile_source("x = 1; /* ok */\ny = 2; /* open\nz = 3;\n", "analyze")
        assert (info.value.location.line, info.value.location.column) == (2, 8)


class TestNestingBound:
    def test_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_wire_stage_runs_at_the_bound(self, shape):
        source = SHAPES[shape](MAX_NESTING)
        for stage in sorted(api.SERVE_STAGES):
            result = api.compile_source(source, stage)
            assert result.stage == stage

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_level_more_is_a_parse_error(self, shape):
        source = SHAPES[shape](MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            api.compile_source(source, "analyze")
        assert error_code(info.value) == E_PARSE
        assert str(info.value).endswith(BOUND_MESSAGE)

    def test_error_points_at_the_token_past_the_bound(self):
        # The innermost ``a`` of the parentheses, the ``1`` of the
        # innermost assignment, and the operator adding the last term.
        for source, token in [
            (parens(MAX_NESTING + 1), "a"),
            (blocks(MAX_NESTING + 1), "1"),
            (chain(MAX_NESTING + 1), "+"),
        ]:
            with pytest.raises(ParseError) as info:
                parse(source)
            loc = info.value.location
            line = source.split("\n")[loc.line - 1]
            assert line[loc.column - 1] == token
        line = chain(MAX_NESTING + 1).split("\n")[0]
        assert parse_error(chain(MAX_NESTING + 1)).location.column == line.rindex("+") + 1

    def test_inputs_that_crashed_now_parse_or_are_typed(self):
        # 130 parentheses and 350 nested ifs overflowed the old parser.
        assert parse(parens(131)) is not None
        assert parse(blocks(700)) is not None
        # A 3000-term chain overflowed the lowering.
        with pytest.raises(ParseError, match=BOUND_MESSAGE):
            api.compile_source(chain(3000), "diagnostics")

    @pytest.mark.parametrize(
        "source",
        [
            "x = " + "-" * (MAX_NESTING + 1) + "a;",
            "x = " + "f(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1) + ";",
            "cobegin begin " * 301 + "skip;" + " end coend" * 301,
            "x = " + "(a + " * 500 + "a" + ")" * 500 + ";",
            "while (a) " * (MAX_NESTING + 1) + "skip;",
        ],
        ids=["unary", "calls", "cobegin", "right-nested", "unbraced-while"],
    )
    def test_other_shapes_are_bounded_too(self, source):
        with pytest.raises(ParseError, match=BOUND_MESSAGE):
            parse(source)

    def test_cli_exits_with_the_input_error_code(self, tmp_path, capsys):
        path = tmp_path / "deep.par"
        path.write_text(blocks(MAX_NESTING + 1))
        assert main(["diagnose", str(path)]) == 3
        assert BOUND_MESSAGE in capsys.readouterr().err


def parse_error(source):
    with pytest.raises(ParseError) as info:
        parse(source)
    return info.value

import random
import sys
from fractions import Fraction

import pytest

from involutive import (
    Ordering,
    ParseError,
    VariableContext,
    parse_monomial,
    parse_monomial_file,
    parse_polynomial,
    parse_polynomial_file,
)

from conftest import random_context, random_polynomial

CTX = VariableContext.of("x", "y", "z")


def test_parse_polynomial_golden():
    p = parse_polynomial("x^2*y - 2*z + 1/3", CTX, Ordering.DEGLEX)
    assert str(p) == "x^2*y - 2*z + 1/3"
    assert p.coefficient(CTX.monomial((0, 0, 1))) == Fraction(-2)
    assert p.coefficient(CTX.one()) == Fraction(1, 3)


def test_parse_accepts_flexible_forms():
    assert parse_polynomial("- x + 3", CTX, Ordering.DEGLEX) == parse_polynomial("3 - x", CTX, Ordering.DEGLEX)
    assert parse_polynomial("7/2*x", CTX, Ordering.DEGLEX).lc == Fraction(7, 2)
    assert parse_polynomial("x*x*y", CTX, Ordering.DEGLEX).lm == CTX.monomial((2, 1, 0))
    assert str(parse_polynomial("0", CTX, Ordering.DEGLEX)) == "0"
    assert str(parse_polynomial("2 - 2", CTX, Ordering.DEGLEX)) == "0"


def test_roundtrip_str_parse():
    rng = random.Random(51)
    for _ in range(200):
        ctx = random_context(rng)
        ordering = rng.choice(list(Ordering))
        p = random_polynomial(rng, ctx, ordering)
        assert parse_polynomial(str(p), ctx, ordering) == p


def test_parse_monomial():
    assert parse_monomial("x^2*y*z", CTX) == CTX.monomial((2, 1, 1))
    assert parse_monomial("1", CTX) == CTX.one()
    with pytest.raises(ParseError):
        parse_monomial("2*x", CTX)
    with pytest.raises(ParseError):
        parse_monomial("x + y", CTX)


def test_negative_exponent_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-1", CTX, Ordering.DEGLEX)
    assert "line 1" in str(err.value)
    assert "column 3" in str(err.value)
    assert "non-negative" in str(err.value)


def test_adjacent_factors_need_operator():
    with pytest.raises(ParseError):
        parse_polynomial("2x", CTX, Ordering.DEGLEX)


def test_unknown_variable_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", CTX, Ordering.DEGLEX)
    assert "q" in str(err.value)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("1/0*x", CTX, Ordering.DEGLEX)


@pytest.mark.parametrize(
    "text, col",
    [("x + " + "1" * 5000, 5), ("x + 3/" + "7" * 5000 + "*y", 7), ("x^" + "2" * 5000, 3)],
    ids=["numerator", "denominator", "exponent"],
)
def test_overlong_number_rejected_at_its_column(text, col):
    # int() refuses a string of more than sys.get_int_max_str_digits() digits
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, CTX, Ordering.DEGLEX, line=4)
    assert (err.value.line, err.value.col) == (4, col)
    assert err.value.message == f"number too long: 5000 digits, at most {sys.get_int_max_str_digits()}"


def test_parse_polynomial_file():
    text = "# staircase ideal\nx^2*y - 1\n\nx*y^2 - 1\ny^4 - 1\n"
    polys, ctx, warnings = parse_polynomial_file(text, VariableContext.of("x", "y"), Ordering.LEX)
    assert len(polys) == 3
    assert ctx == VariableContext.of("x", "y")
    assert warnings == []
    assert [str(p) for p in polys] == ["x^2*y - 1", "x*y^2 - 1", "y^4 - 1"]


def test_parse_file_infers_variables_with_warning():
    polys, ctx, warnings = parse_polynomial_file("y + x\nx*z - 1\n", None, Ordering.DEGLEX)
    assert ctx.names == ("y", "x", "z")
    assert len(warnings) == 1
    assert "inferred" in warnings[0]


def test_parse_file_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_polynomial_file("x + 1\nx^-2\n", CTX, Ordering.DEGLEX)
    assert err.value.line == 2


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_polynomial_file("", CTX, Ordering.DEGLEX)
    with pytest.raises(ParseError):
        parse_polynomial_file("# only a comment\n", CTX, Ordering.DEGLEX)


def test_parse_monomial_file():
    monomials, ctx, _ = parse_monomial_file("x^2\nx*y\nz\n", CTX)
    assert [str(m) for m in monomials] == ["x^2", "x*y", "z"]


@pytest.mark.parametrize(
    "parse, line, col, message",
    [
        (lambda: parse_polynomial("1/x", CTX, Ordering.DEGLEX), 1, 3, "expected an integer denominator"),
        (lambda: parse_polynomial("x^y", CTX, Ordering.DEGLEX), 1, 3, "expected an integer exponent"),
        (lambda: parse_polynomial("x + *y", CTX, Ordering.DEGLEX), 1, 5, "expected a coefficient or a variable"),
        (lambda: parse_polynomial("-", CTX, Ordering.DEGLEX), 1, 2, "expected a term"),
        (lambda: parse_polynomial("x/2", CTX, Ordering.DEGLEX), 1, 2, "expected '+' or '-' between terms"),
        (lambda: parse_monomial("", CTX), 1, 1, "expected a monomial"),
        (lambda: parse_polynomial_file("# c\n1\n2\n", None, Ordering.DEGLEX), 2, 1, "no variables found and none declared"),
    ],
    ids=["denominator", "exponent", "factor", "term", "separator", "monomial", "no-variables"],
)
def test_parse_error_positions_and_messages(parse, line, col, message):
    with pytest.raises(ParseError) as err:
        parse()
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
    assert str(err.value) == f"line {line}, column {col}: {message}"

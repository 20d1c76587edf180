import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmod import (
    ParseError,
    format_poly,
    parse_fraction,
    parse_poly,
    ring,
)
from affmod.parse import _int_text

from conftest import poly_strategy

RXY = ring("x", "y")
RXYU = ring("x", "y", "u")


class TestParsePoly:
    def test_basic(self):
        x, y = RXY.gens()
        assert parse_poly("x^2*y - 1", RXY) == x**2 * y - 1

    def test_defining_relation(self):
        x, y, u = RXYU.gens()
        expected = u * (x**3 * y - 1) - (x - 1)
        assert parse_poly("u*(x^3*y - 1) - (x - 1)", RXYU) == expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^-1", RXY)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("xy + 1", RXY)  # 'xy' is an unknown identifier

    def test_unary_minus_binds_tighter_than_product(self):
        x, y = RXY.gens()
        assert parse_poly("-x*y", RXY) == -(x * y)
        assert parse_poly("-x^2", RXY) == -(x**2)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x + z", RXY)
        assert exc.value.position == 4

    @pytest.mark.parametrize("parse, text, message, position", [
        (parse_poly, "x + $", "unexpected character '$'", 4),
        (parse_poly, "x + z", "unknown variable 'z'", 4),
        (parse_poly, "x^-1", "negative exponent", 2),
        (parse_poly, "x^y", "exponent must be an integer literal", 2),
        (parse_poly, "x^", "exponent must be an integer literal", 2),
        (parse_poly, "(x + 1", "expected ')'", 6),
        (parse_poly, "x +", "unexpected 'end of input'", 3),
        (parse_poly, "", "unexpected 'end of input'", 0),
        (parse_poly, "x y", "unexpected 'y'", 2),
        (parse_poly, ")", "unexpected ')'", 0),
        (parse_poly, "2^3^4", "unexpected '^'", 3),
        (parse_poly, "x/y", "'/' is only allowed once, at the top of a fraction", 1),
        (parse_fraction, "x/(y-y)", "zero denominator", 1),
    ])
    def test_every_error_branch(self, parse, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text, RXY)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("\u0663*x", 0)],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit_rejected(self, text, position):
        # str.isdigit accepts both; int() rejects the first and reads the
        # second as 3
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_poly(text, RXY)
        assert exc.value.position == position

    def test_precedence(self):
        x, y = RXY.gens()
        assert parse_poly("2*x^3 + x*y - 4", RXY) == 2 * x**3 + x * y - 4


class TestParseFraction:
    def test_generator_fraction(self):
        x, y = RXY.gens()
        assert parse_fraction("(x-1)/(x^2*y-1)", RXY) == (x - 1, x**2 * y - 1)

    def test_polynomial_defaults_denominator(self):
        assert parse_fraction("x+1", RXY)[1] == RXY.one()

    def test_probe_fraction(self):
        x, y = RXY.gens()
        assert parse_fraction("(y-1)/(x*y-1)", RXY) == (y - 1, x * y - 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_fraction("x/(y-y)", RXY)

    def test_double_slash_rejected(self):
        with pytest.raises(ParseError):
            parse_fraction("x/y/2", RXY)

    @pytest.mark.parametrize("parse, text, position", [
        (parse_poly, "x/y", 1), (parse_poly, "(x/y)", 2), (parse_poly, "x*(y/2)", 4),
        (parse_fraction, "x/y/2", 3), (parse_fraction, "(x/y)/2", 2),
    ])
    def test_slash_error_positions(self, parse, text, position):
        with pytest.raises(ParseError) as exc:
            parse(text, RXY)
        assert exc.value.position == position


DEEP = ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "(" * 3000]


class TestDeepNesting:
    @pytest.mark.parametrize("text", DEEP, ids=["parens", "minus", "unclosed"])
    def test_poly(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_poly(text, RXY)

    @pytest.mark.parametrize("text", DEEP, ids=["parens", "minus", "unclosed"])
    def test_fraction(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_fraction(text, RXY)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_fraction("x/" + text, RXY)


class TestFormat:
    def test_examples(self):
        x, y = RXY.gens()
        assert format_poly(x**2 * y - 1) == "x^2*y - 1"
        assert format_poly(RXY.zero()) == "0"
        assert format_poly(2 * x) == "2*x"

    def test_coefficients_of_any_length(self):
        # longer than sys.get_int_max_str_digits(), where str() and int() stop
        x, y = RXY.gens()
        ones = (10**5000 - 1) // 9
        assert parse_poly("1" * 5000 + "*x", RXY) == ones * x
        for p in (ones * x - 3, x**ones - y, -ones * y):
            assert parse_poly(format_poly(p), RXY) == p
        assert format_poly(x.scale(Fraction(-1, ones + 1))) == f"-1/{'1' * 4999}2*x"

    def test_int_text_matches_str(self):
        """Big ints print by divide and conquer; the digits are str()'s,
        with the interpreter's digit limit (Python 3.11 and later) lifted
        for the comparison."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        rng = random.Random(5)
        try:
            for bits in (1, 1999, 2000, 2001, 2002, 4001, 6643):
                for n in (2**bits - 1, 2**bits, rng.getrandbits(bits)):
                    assert _int_text(n) == str(n)
                    assert _int_text(-n) == str(-n)
            for n in (10**99999, 10**100000 - 1, -(10**100000) - 1):
                assert _int_text(n) == str(n)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    @given(p=poly_strategy(RXYU))
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert parse_poly(format_poly(p), RXYU) == p

    @given(text=st.text(alphabet="xyu1230+-*/^() \u00b2\u0663", max_size=30))
    @settings(max_examples=300)
    def test_no_crash_on_adversarial_input(self, text):
        try:
            parse_poly(text, RXYU)
        except ParseError:
            pass

    def test_comment_ignored(self):
        assert parse_poly("x + 1  # the b generator", RXY) == RXY.var("x") + 1

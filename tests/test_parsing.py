from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compositions
from extshuffle import (
    ChenFraction,
    ChenSymbol,
    LinComb,
    ParseError,
    parse_assignment,
    parse_composition,
    parse_fraction,
    parse_lincomb,
    parse_symbol,
)


def test_parse_composition():
    assert parse_composition("[1,-2,3]") == (1, -2, 3)
    assert parse_composition("  [ 1 , -2 ]  ") == (1, -2)
    assert parse_composition("1") == ()
    assert parse_composition("[5]") == (5,)


@pytest.mark.parametrize("bad", ["", "[", "[1,]", "[]", "x", "[1] junk", "2"])
def test_parse_composition_errors_carry_position(bad):
    with pytest.raises(ParseError) as err:
        parse_composition(bad)
    assert "position" in str(err.value)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_composition, "[\u00b2]"),
        (parse_composition, "[1,-\u00b2]"),
        (parse_lincomb, "\u00b2[1]"),
        (parse_assignment, "1=1/\u00b2"),
        (parse_assignment, "\u00b2=1"),
    ],
)
def test_digits_int_rejects_are_parse_errors(parse, text):
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "position" in str(err.value)


def test_other_decimal_digits_parse():
    assert parse_composition("[\u0661\u0662]") == (12,)


def test_parse_lincomb():
    assert parse_lincomb("[-1,1] - [0,0]") == LinComb([((-1, 1), 1), ((0, 0), -1)])
    assert parse_lincomb("2[2,2] + 4[3,1]") == LinComb([((2, 2), 2), ((3, 1), 4)])
    assert parse_lincomb("0") == LinComb.zero()
    assert parse_lincomb("1") == LinComb.basis(())
    assert parse_lincomb("-3/2") == LinComb.basis((), Fraction(-3, 2))
    assert parse_lincomb("3/2[2,1] - 1") == LinComb(
        [((2, 1), Fraction(3, 2)), ((), -1)]
    )
    assert parse_lincomb("-[0,0]") == LinComb.basis((0, 0), -1)


@pytest.mark.parametrize("bad", ["", "+[1]", "[1] +", "[1] [2]", "1/0"])
def test_parse_lincomb_errors(bad):
    with pytest.raises(ParseError):
        parse_lincomb(bad)


@given(
    st.lists(
        st.tuples(compositions(-5, 5, 3), st.fractions(min_value=-5, max_value=5)),
        max_size=5,
    )
)
def test_lincomb_print_parse_round_trip(raw_terms):
    x = LinComb((comp, coef) for comp, coef in raw_terms)
    assert parse_lincomb(str(x)) == x


def test_parse_symbol():
    assert parse_symbol("<[1,-2];[3,1]>") == ChenSymbol((1, -2), (3, 1))
    assert parse_symbol(" < [0] ; [7] > ") == ChenSymbol((0,), (7,))
    assert parse_symbol("1") == ChenSymbol((), ())
    with pytest.raises(ParseError):
        parse_symbol("<[1];[2]")
    with pytest.raises(ValueError):
        parse_symbol("<[1,2];[3]>")  # row length mismatch


def test_symbol_print_parse_round_trip():
    for sym in (ChenSymbol((1, -2), (3, 1)), ChenSymbol((), ())):
        assert parse_symbol(str(sym)) == sym


def test_parse_fraction():
    assert parse_fraction("f([1,1];[1,2])") == ChenFraction((1, 1), (1, 2))
    assert parse_fraction("f( [ -1 ] ; [ 3 ] )") == ChenFraction((-1,), (3,))
    assert parse_fraction("1") == ChenFraction((), ())
    with pytest.raises(ParseError):
        parse_fraction("f([1];[2]")
    with pytest.raises(ParseError):
        parse_fraction("g([1];[2])")


def test_fraction_print_parse_round_trip():
    for frac in (ChenFraction((1, -1), (2, 9)), ChenFraction((), ())):
        assert parse_fraction(str(frac)) == frac


def test_parse_assignment():
    assert parse_assignment("3=1/2") == (3, Fraction(1, 2))
    assert parse_assignment("1 = 4") == (1, Fraction(4))
    with pytest.raises(ParseError):
        parse_assignment("x=1")
    with pytest.raises(ParseError):
        parse_assignment("3=")
    with pytest.raises(ParseError):
        parse_assignment("3=1/0")

import sys
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


# every message, with its position, as the parser has always reported it
@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_composition, "[- 1]", "expected integer at position 1 in '[- 1]'"),
        (parse_composition, "[1,]", "expected integer at position 3 in '[1,]'"),
        (parse_composition, "[]", "expected integer at position 1 in '[]'"),
        (parse_composition, "[\u00b2]", "expected integer at position 1 in '[\u00b2]'"),
        (parse_lincomb, "1/", "expected integer at position 2 in '1/'"),
        (parse_lincomb, "[1] - 2/x", "expected integer at position 8 in '[1] - 2/x'"),
        (parse_assignment, "3=", "expected integer at position 2 in '3='"),
        (parse_assignment, "3 = - 1", "expected integer at position 4 in '3 = - 1'"),
        (parse_symbol, "<[x];[1]>", "expected integer at position 2 in '<[x];[1]>'"),
        (parse_assignment, "x=1", "expected digit at position 0 in 'x=1'"),
        (parse_assignment, "-1=2", "expected digit at position 0 in '-1=2'"),
        (parse_assignment, " \u00b2=1", "expected digit at position 1 in ' \u00b2=1'"),
        (parse_assignment, "3 4", "expected '=' at position 2 in '3 4'"),
        (parse_symbol, "<1];[2]>", "expected '[' at position 1 in '<1];[2]>'"),
        (parse_symbol, "<[1]; 2]>", "expected '[' at position 6 in '<[1]; 2]>'"),
        (parse_fraction, "f( 1];[2])", "expected '[' at position 3 in 'f( 1];[2])'"),
        (parse_composition, "[1,", "expected integer at position 3 in '[1,'"),
        (parse_composition, "[1 2]", "expected ']' at position 3 in '[1 2]'"),
        (parse_fraction, "f([1;[2])", "expected ']' at position 4 in 'f([1;[2])'"),
        (parse_symbol, "<[1] [2]>", "expected ';' at position 5 in '<[1] [2]>'"),
        (parse_symbol, "<[1];[2]", "expected '>' at position 8 in '<[1];[2]'"),
        (parse_symbol, "<[1];[2] )", "expected '>' at position 9 in '<[1];[2] )'"),
        (parse_fraction, "g([1];[1])", "expected 'f' at position 0 in 'g([1];[1])'"),
        (parse_symbol, " [1];[2]>", "expected '<' at position 1 in ' [1];[2]>'"),
        (parse_fraction, "f [1];[1])", "expected '(' at position 2 in 'f [1];[1])'"),
        (parse_fraction, "f([1];[2]", "expected ')' at position 9 in 'f([1];[2]'"),
        (parse_fraction, "f([1];[2]>", "expected ')' at position 9 in 'f([1];[2]>'"),
        (parse_composition, "", "expected composition ('[...]' or '1') at position 0 in ''"),
        (parse_composition, "  x", "expected composition ('[...]' or '1') at position 2 in '  x'"),
        (parse_composition, "2", "expected composition ('[...]' or '1') at position 0 in '2'"),
        (parse_lincomb, "", "expected a term at position 0 in ''"),
        (parse_lincomb, "[1] + ", "expected a term at position 6 in '[1] + '"),
        (parse_lincomb, "- -3", "expected a term at position 2 in '- -3'"),
        (parse_lincomb, "x", "expected a term at position 0 in 'x'"),
        (parse_lincomb, "+[1]", "unexpected leading '+' at position 1 in '+[1]'"),
        (parse_lincomb, "  + 1", "unexpected leading '+' at position 3 in '  + 1'"),
        (parse_assignment, "3=1/0", "zero denominator at position 5 in '3=1/0'"),
        (parse_lincomb, "1/0", "zero denominator at position 3 in '1/0'"),
        (parse_lincomb, "[1] - 2/ 00 [2]", "zero denominator at position 11 in '[1] - 2/ 00 [2]'"),
        (parse_composition, "[1]]", "unexpected trailing input at position 3 in '[1]]'"),
        (parse_composition, "[1] junk", "unexpected trailing input at position 4 in '[1] junk'"),
        (parse_composition, "12", "unexpected trailing input at position 1 in '12'"),
        (parse_lincomb, "[1] [2]", "unexpected trailing input at position 4 in '[1] [2]'"),
        (parse_symbol, "1 x", "unexpected trailing input at position 2 in '1 x'"),
        (parse_fraction, "f([1];[2]))", "unexpected trailing input at position 10 in 'f([1];[2]))'"),
        (parse_assignment, "1=2 3", "unexpected trailing input at position 4 in '1=2 3'"),
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_integers_up_to_the_digit_limit_parse():
    limit = sys.get_int_max_str_digits()
    assert parse_composition("[" + "9" * limit + "]") == (10**limit - 1,)
    assert parse_composition("[-" + "9" * limit + "]") == (1 - 10**limit,)
    text = "[1, -" + "9" * (limit + 1) + "]"
    with pytest.raises(ParseError) as err:
        parse_composition(text)
    assert err.value.pos == 4  # the number's first character, its sign
    assert str(err.value).startswith(f"integer over {limit} digits at position 4 ")
    with pytest.raises(ParseError) as err:
        parse_lincomb("1/" + "0" * (limit + 1))
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_assignment("9" * (limit + 1) + "=1")


def test_a_long_input_is_echoed_only_near_the_error():
    text = "[" + "1," * 100 + "x" + ",1" * 100 + "]"
    with pytest.raises(ParseError) as err:
        parse_composition(text)
    assert (err.value.text, err.value.pos) == (text, 201)
    shown = repr(text[171:231])
    assert str(err.value) == f"expected integer at position 201 in ...{shown}..."
    limit = sys.get_int_max_str_digits()
    nines = "[" + "9" * (limit + 1) + "]"
    with pytest.raises(ParseError) as err:
        parse_composition(nines)
    assert (err.value.text, err.value.pos) == (nines, 1)
    assert str(err.value) == f"integer over {limit} digits at position 1 in {nines[:31]!r}..."


@pytest.mark.parametrize("length, shown", [(30, repr("x" * 30)), (31, repr("x" * 30) + "...")])
def test_the_echo_is_cut_only_past_30_characters_of_the_position(length, shown):
    with pytest.raises(ParseError) as err:
        parse_composition("x" * length)
    assert str(err.value).endswith(f"at position 0 in {shown}")

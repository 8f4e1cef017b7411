from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compositions
from extshuffle import ChenSymbol, LinComb, SymbolLinComb, UNIT, depth, ext_shuffle, op_I, op_J, partial_weight, weight
from extshuffle.algebra import format_composition


def test_depth():
    assert depth((3, -1)) == 2
    assert depth(UNIT) == 0
    assert depth((0,)) == 1


def test_partial_weight():
    assert partial_weight((4, -1), 2) == 3
    assert partial_weight((2, -1), 1) == 2
    assert partial_weight(UNIT, 0) == 0
    assert partial_weight((1, 2, 3), 0) == 0


def test_weight():
    assert weight((4, -1)) == 3
    assert weight(UNIT) == 0


def test_partial_weight_out_of_range():
    with pytest.raises(IndexError):
        partial_weight((1, 2), 3)
    with pytest.raises(IndexError):
        partial_weight((1, 2), -1)
    with pytest.raises(IndexError):
        partial_weight(UNIT, 1)


def test_op_I_basics():
    assert op_I(LinComb.basis((1, 3))) == LinComb.basis((2, 3))
    x = 2 * LinComb.basis((0,)) - LinComb.basis((-1,))
    assert op_I(x) == 2 * LinComb.basis((1,)) - LinComb.basis((0,))
    assert op_I(op_J(LinComb.basis((5,)))) == LinComb.basis((5,))


def test_op_I_rejects_unit():
    with pytest.raises(ValueError):
        op_I(LinComb.basis(UNIT))
    with pytest.raises(ValueError):
        op_I(LinComb.basis((2,)) + LinComb.basis(UNIT))


def test_op_J_basics():
    assert op_J(LinComb.basis((2, 3))) == LinComb.basis((1, 3))
    assert op_J(LinComb.basis(UNIT)) == LinComb.zero()
    assert op_J(LinComb.basis((0,))) == LinComb.basis((-1,))


@given(compositions(min_depth=1))
def test_op_I_op_J_mutually_inverse(comp):
    x = LinComb.basis(comp)
    assert op_J(op_I(x)) == x
    assert op_I(op_J(x)) == x


@given(compositions(min_depth=1))
def test_shift_operators_preserve_depth(comp):
    x = LinComb.basis(comp)
    for shifted in (op_I(x), op_J(x)):
        assert all(len(t) == len(comp) for t in shifted.support())


@given(compositions(), compositions(), compositions())
def test_vector_space_axioms(a, b, c):
    xa, xb, xc = (LinComb.basis(t) for t in (a, b, c))
    assert xa + xb == xb + xa
    assert (xa + xb) + xc == xa + (xb + xc)
    assert xa + LinComb.zero() == xa
    assert xa - xa == LinComb.zero()
    assert 2 * (xa + xb) == 2 * xa + 2 * xb
    assert Fraction(1, 2) * (2 * xa) == xa


@given(compositions(), st.integers(-5, 5).filter(bool))
def test_add_then_negate_leaves_no_residue(comp, coef):
    original = LinComb.basis((9, 9, 9))
    restored = original + LinComb.basis(comp, coef) + LinComb.basis(comp, -coef)
    assert restored == original
    # no zero-coefficient entry may survive internally
    assert comp == (9, 9, 9) or comp not in dict(restored.items())


def test_canonical_term_order_is_length_then_lex():
    x = (
        LinComb.basis((2,))
        + LinComb.basis((-3, 5))
        + LinComb.basis((1, 1))
        + LinComb.basis(UNIT)
    )
    assert [t for t, _ in x.terms()] == [UNIT, (2,), (-3, 5), (1, 1)]


def test_str_rendering():
    assert str(LinComb.zero()) == "0"
    assert str(LinComb.basis(UNIT)) == "1"
    assert str(LinComb.basis((-1, 1)) - LinComb.basis((0, 0))) == "[-1,1] - [0,0]"
    assert str(2 * LinComb.basis((2, 2)) + 4 * LinComb.basis((3, 1))) == "2[2,2] + 4[3,1]"
    assert str(Fraction(-3, 2) * LinComb.basis(UNIT)) == "-3/2"
    assert format_composition((2, -1)) == "[2,-1]"
    assert format_composition(UNIT) == "1"


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        LinComb.basis((1,), 0.5)
    with pytest.raises(TypeError):
        LinComb({(1,): 1.5})
    with pytest.raises(TypeError):
        LinComb.basis((1,)) * 0.5


def test_rejects_non_rational_coefficients():
    with pytest.raises(TypeError, match="int or Fraction"):
        LinComb.basis((1,), Decimal(1))


def test_rejects_non_integer_entries():
    with pytest.raises(TypeError, match="must be integers"):
        ext_shuffle((1.5,), (2,))


def test_coefficient():
    x = Fraction(3, 2) * LinComb.basis((2, -1)) - LinComb.basis(UNIT)
    assert x.coefficient((2, -1)) == Fraction(3, 2)
    assert x.coefficient(UNIT) == -1
    assert x.coefficient((2,)) == 0


def test_json_round_trip():
    x = Fraction(3, 2) * LinComb.basis((2, -1)) - LinComb.basis(UNIT)
    data = x.to_json_dict()
    assert data == {
        "terms": [
            {"coef": "-1", "comp": []},
            {"coef": "3/2", "comp": [2, -1]},
        ]
    }
    assert LinComb.from_json_dict(data) == x


def test_combinations_of_different_term_types_do_not_mix():
    x, y = LinComb.basis((1,)), SymbolLinComb.basis(ChenSymbol((1,), (1,)))
    with pytest.raises(TypeError):
        x + y
    with pytest.raises(TypeError):
        x - y
    assert not x == y and x != y


def test_repr():
    assert repr(LinComb.basis((2,)) - 2 * LinComb.basis((3, 1))) == "LinComb<[2] - 2[3,1]>"

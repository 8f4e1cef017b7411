from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extshuffle import (
    ChenFraction,
    ChenSymbol,
    FRACTION_UNIT,
    F_map,
    FractionLinComb,
    LinComb,
    SYMBOL_UNIT,
    SymbolLinComb,
    VanishingDenominatorError,
    equal_on_panel,
    evaluate,
    evaluation_panel,
    fraction_product,
    mult_by_linear,
    op_I,
    op_J,
    opS_I,
    opS_J,
    phi_project,
    symbol_product,
    variables,
)
from test_symbols import symbol_pairs


def test_fraction_semantics_by_evaluation():
    # <1,1;1,2> denotes 1/((x1+x2) x2)
    frac = ChenFraction((1, 1), (1, 2))
    assert frac.evaluate({1: Fraction(1), 2: Fraction(1)}) == Fraction(1, 2)
    # exponent zero in a single variable is the constant one
    assert ChenFraction((0,), (5,)).evaluate({5: Fraction(9, 7)}) == 1
    # negative exponent multiplies
    assert ChenFraction((-1,), (3,)).evaluate({3: Fraction(4)}) == 4


def test_F_map_examples():
    x = SymbolLinComb.basis(ChenSymbol((1, 1), (1, 2)))
    assert F_map(x) == FractionLinComb.basis(ChenFraction((1, 1), (1, 2)))
    assert F_map(SymbolLinComb.basis(ChenSymbol((), ()))) == FractionLinComb.basis(
        FRACTION_UNIT
    )
    assert str(ChenFraction((1, 1), (1, 2))) == "f([1,1];[1,2])"
    assert str(FRACTION_UNIT) == "1"


def test_evaluate_product_example():
    prod = symbol_product(ChenSymbol((1,), (1,)), ChenSymbol((1,), (2,)))
    value = evaluate(F_map(prod), {1: Fraction(2), 2: Fraction(3)})
    assert value == Fraction(1, 6) == Fraction(1, 2) * Fraction(1, 3)


def test_evaluate_unit():
    for point in ({}, {1: Fraction(5)}):
        assert evaluate(FRACTION_UNIT, point) == 1


def test_evaluate_missing_assignment():
    with pytest.raises(ValueError, match="no value assigned"):
        ChenFraction((1,), (4,)).evaluate({1: Fraction(1)})


def test_errors_on_long_rows_cut_their_echo_at_60_characters():
    labels = tuple(range(1, 3001))
    a = ChenFraction((1,) * 3000, labels)
    with pytest.raises(ValueError, match=r"^fractions share variable indices \[1, 2, 3,") as info:
        fraction_product(a, a)
    assert len(str(info.value)) == len("fractions share variable indices ") + 63
    with pytest.raises(VanishingDenominatorError) as info:
        ChenFraction((1,) + (0,) * 2999, labels).evaluate({1: -2999, **dict.fromkeys(labels[1:], 1)})
    assert info.value.indices == labels
    form = "+".join(f"x{i}" for i in labels)
    assert str(info.value) == f"denominator {form[:60]}... vanishes at the evaluation point"


def test_evaluate_vanishing_denominator():
    with pytest.raises(VanishingDenominatorError, match="x1\\+x2"):
        ChenFraction((2, 1), (1, 2)).evaluate({1: Fraction(-1), 2: Fraction(1)})
    # a vanishing linear form under a nonpositive exponent is not a pole
    assert ChenFraction((-2,), (1,)).evaluate({1: Fraction(0)}) == 0
    assert ChenFraction((0,), (1,)).evaluate({1: Fraction(0)}) == 1


def test_mult_by_linear():
    assert mult_by_linear(ChenFraction((1,), (1,)), "down") == ChenFraction((0,), (1,))
    assert mult_by_linear(ChenFraction((0,), (1,)), "up") == ChenFraction((1,), (1,))
    frac = ChenFraction((3, -2), (2, 7))
    assert mult_by_linear(mult_by_linear(frac, "up"), "down") == frac
    assert mult_by_linear(mult_by_linear(frac, "down"), "up") == frac
    with pytest.raises(ValueError):
        mult_by_linear(FRACTION_UNIT, "down")
    with pytest.raises(ValueError):
        mult_by_linear(frac, "sideways")


def test_mult_by_linear_matches_semantics():
    frac = ChenFraction((2, -1), (3, 1))
    point = {1: Fraction(2, 3), 3: Fraction(5)}
    linear = point[1] + point[3]
    assert mult_by_linear(frac, "down").evaluate(point) == linear * frac.evaluate(point)
    assert mult_by_linear(frac, "up").evaluate(point) == frac.evaluate(point) / linear


def test_fraction_product_examples():
    out = fraction_product(ChenFraction((1,), (1,)), ChenFraction((1,), (2,)))
    assert out == FractionLinComb.basis(ChenFraction((1, 1), (1, 2))) + FractionLinComb.basis(
        ChenFraction((1, 1), (2, 1))
    )
    out = fraction_product(ChenFraction((0,), (1,)), ChenFraction((5,), (2,)))
    assert out == FractionLinComb.basis(ChenFraction((0, 5), (1, 2)))
    # the leading-negative case produces a signed pair; semantically it is x1
    out = fraction_product(ChenFraction((-1,), (1,)), ChenFraction((0,), (2,)))
    assert out == FractionLinComb.basis(ChenFraction((-1, 0), (1, 2))) - FractionLinComb.basis(
        ChenFraction((0, -1), (1, 2))
    )
    point = {1: Fraction(5), 2: Fraction(7)}
    assert evaluate(out, point) == point[1]


def test_fraction_product_rejects_shared_variables():
    with pytest.raises(ValueError, match="share variable"):
        fraction_product(ChenFraction((1,), (1,)), ChenFraction((1,), (1,)))


@given(symbol_pairs())
def test_product_is_pointwise_multiplication(pair):
    a, b = pair
    fa = F_map(SymbolLinComb.basis(a))
    fb = F_map(SymbolLinComb.basis(b))
    fab = F_map(symbol_product(a, b))
    for point in evaluation_panel(set(a.labels) | set(b.labels), count=4, seed=3):
        assert evaluate(fab, point) == evaluate(fa, point) * evaluate(fb, point)


@given(symbol_pairs(max_depth=2))
def test_symbol_J_is_multiplication_by_full_linear_form(pair):
    sym, _ = pair
    if not sym.depth:
        return
    x = SymbolLinComb.basis(sym)
    for point in evaluation_panel(sym.labels, count=3, seed=11):
        linear = sum(point[i] for i in sym.labels)
        assert evaluate(F_map(opS_J(x)), point) == linear * evaluate(F_map(x), point)


@given(st.lists(symbol_pairs(), max_size=3))
def test_variables(pairs):
    frac = ChenFraction((1, 2), (5, 3))
    assert variables(frac) == (3, 5)
    combo = FractionLinComb.basis(frac) + FractionLinComb.basis(ChenFraction((1,), (8,)))
    assert variables(combo) == (3, 5, 8)
    # the sorted union of the term rows, on a single fraction as on its basis sum
    x = FractionLinComb((ChenFraction(*sym), 1) for pair in pairs for sym in pair)
    assert variables(x) == tuple(sorted({i for f in x.support() for i in f.var_indices}))
    for frac in x.support():
        assert variables(frac) == variables(FractionLinComb.basis(frac))


@st.composite
def symbol_combinations(draw):
    """Up to six symbols of positive depth with nonzero coefficients, plus the unit."""
    coefs = st.integers(-3, 3).filter(bool)
    pairs = draw(st.lists(symbol_pairs(), max_size=3))
    terms = [(sym, draw(coefs)) for pair in pairs for sym in pair if sym.depth]
    return SymbolLinComb(terms) + SymbolLinComb.basis(SYMBOL_UNIT, draw(coefs))


@given(symbol_combinations())
def test_the_first_entry_shift_is_one_rule_on_every_layer(x):
    assert phi_project(opS_J(x)) == op_J(phi_project(x))
    positive = x - SymbolLinComb.basis(SYMBOL_UNIT, x.coefficient(SYMBOL_UNIT))
    assert phi_project(opS_I(positive)) == op_I(phi_project(positive))
    for sym, _ in x.items():
        term = SymbolLinComb.basis(sym)
        if not sym.depth:
            assert opS_J(term) == SymbolLinComb.zero()
            continue
        frac = ChenFraction(*sym)
        assert F_map(opS_J(term)) == FractionLinComb.basis(mult_by_linear(frac, "down"))
        assert F_map(opS_I(term)) == FractionLinComb.basis(mult_by_linear(frac, "up"))


@pytest.mark.parametrize(
    "shift, message",
    [
        (lambda: op_I(LinComb.basis(())), "first-entry increment is undefined on the unit term"),
        (
            lambda: op_I(LinComb.basis((2,)) + LinComb.basis(())),
            "first-entry increment is undefined on the unit term",
        ),
        (
            lambda: opS_I(SymbolLinComb({ChenSymbol((1,), (1,)): 1, SYMBOL_UNIT: 2})),
            "first-exponent increment is undefined on the unit symbol",
        ),
        (
            lambda: mult_by_linear(FRACTION_UNIT, "down"),
            "the unit fraction has no leading linear form",
        ),
        # the unit is checked before the direction
        (
            lambda: mult_by_linear(FRACTION_UNIT, "sideways"),
            "the unit fraction has no leading linear form",
        ),
        (
            lambda: mult_by_linear(ChenFraction((1,), (1,)), "sideways"),
            "direction must be 'down' or 'up', got 'sideways'",
        ),
    ],
    ids=["op_I-unit", "op_I-unit-among-terms", "opS_I", "down", "sideways-unit", "sideways"],
)
def test_the_shift_messages(shift, message):
    with pytest.raises(ValueError) as err:
        shift()
    assert str(err.value) == message


def test_panel_is_deterministic_and_positive():
    panel1 = evaluation_panel((1, 2, 3), seed=42)
    panel2 = evaluation_panel((1, 2, 3), seed=42)
    assert panel1 == panel2
    assert len(panel1) == 8
    assert panel1[0] == {1: 1, 2: 1, 3: 1}
    assert panel1[1] == {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)}
    for point in panel1:
        for value in point.values():
            assert value > 0
            assert 1 <= value.denominator <= 7
            assert 1 <= value.numerator <= 7
    assert evaluation_panel((1, 2, 3), seed=43) != panel1


def test_empty_panel_is_rejected():
    # an empty panel would call any two fractions equal
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one point"):
            evaluation_panel((1,), count=count)
    with pytest.raises(ValueError):
        equal_on_panel(ChenFraction((1,), (1,)), ChenFraction((2,), (1,)), count=0)
    assert len(evaluation_panel((1,), count=1)) == 1


def test_formal_terms_are_not_independent_but_panel_sees_through():
    # the exponent-zero fraction equals the unit as a function
    zero_exp = FractionLinComb.basis(ChenFraction((0,), (2,)))
    one = FractionLinComb.basis(FRACTION_UNIT)
    assert zero_exp != one  # formal inequality
    assert equal_on_panel(zero_exp, one)  # semantic equality
    assert not equal_on_panel(zero_exp, 2 * one)


def test_fraction_combination_text():
    product = fraction_product(ChenFraction((1,), (1,)), ChenFraction((1,), (2,)))
    assert str(product) == "f([1,1];[1,2]) + f([1,1];[2,1])"


def test_fraction_combination_json():
    product = fraction_product(ChenFraction((1,), (1,)), ChenFraction((2,), (2,)))
    assert product.to_json_dict() == {
        "terms": [
            {"coef": "1", "comp": [1, 2], "var_indices": [1, 2]},
            {"coef": "1", "comp": [2, 1], "var_indices": [1, 2]},
            {"coef": "1", "comp": [2, 1], "var_indices": [2, 1]},
        ]
    }
    unit = FractionLinComb.basis(FRACTION_UNIT, Fraction(-1, 2)).to_json_dict()
    assert unit == {"terms": [{"coef": "-1/2", "comp": [], "var_indices": []}]}


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=4, max_size=4),
)
def test_evaluate_is_the_product_of_its_linear_forms(exponents, values):
    frac = ChenFraction(tuple(exponents), tuple(range(1, len(exponents) + 1)))
    point = dict(enumerate(values, start=1))
    forms = [sum(values[j : len(exponents)]) for j in range(len(exponents))]
    poles = [j for j, s in enumerate(exponents) if s > 0 and forms[j] == 0]
    if poles:
        # the innermost vanishing form is the one reported
        with pytest.raises(VanishingDenominatorError) as err:
            frac.evaluate(point)
        assert err.value.indices == frac.var_indices[poles[-1] :]
        return
    expected = Fraction(1)
    for s, form in zip(exponents, forms):
        expected *= Fraction(form) ** -s
    assert frac.evaluate(point) == expected


def test_evaluate_accepts_int_and_float_coordinates():
    frac = ChenFraction((2, -1), (1, 2))
    exact = frac.evaluate({1: Fraction(1), 2: Fraction(1, 2)})
    assert exact == Fraction(2, 9)
    assert frac.evaluate({1: 1, 2: 0.5}) == exact
    assert type(frac.evaluate({1: 1, 2: 1})) is Fraction


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), max_size=3),
            st.permutations((1, 2, 3)),
            st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5)),
        ),
        max_size=6,
    ),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=3, max_size=3),
)
def test_combination_value_is_the_sum_of_its_term_values(raw_terms, values):
    x = FractionLinComb(
        (ChenFraction(tuple(e), tuple(labels[: len(e)])), c) for e, labels, c in raw_terms
    )
    point = dict(enumerate(values, start=1))
    try:
        expected = Fraction(0)
        for frac, coef in x.items():
            expected += Fraction(coef) * frac.evaluate(point)
    except VanishingDenominatorError as term_error:
        with pytest.raises(VanishingDenominatorError) as err:
            evaluate(x, point)
        assert err.value.indices == term_error.indices
        return
    value = evaluate(x, point)
    assert value == expected and type(value) is Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extshuffle import (
    ChenSymbol,
    LinComb,
    SYMBOL_UNIT,
    SymbolLinComb,
    ext_shuffle,
    independent,
    make_independent,
    opS_I,
    opS_J,
    phi_project,
    symbol_product,
)


@st.composite
def symbol_pairs(draw, max_depth=3, min_entry=-3, max_entry=3):
    da = draw(st.integers(0, max_depth))
    db = draw(st.integers(0, max_depth))
    labels = draw(st.permutations(range(1, 13)))
    ea = tuple(draw(st.integers(min_entry, max_entry)) for _ in range(da))
    eb = tuple(draw(st.integers(min_entry, max_entry)) for _ in range(db))
    return (
        ChenSymbol(ea, tuple(labels[:da])),
        ChenSymbol(eb, tuple(labels[da : da + db])),
    )


def test_symbol_validation():
    with pytest.raises(ValueError):
        ChenSymbol((1, 2), (1,))
    with pytest.raises(ValueError):
        ChenSymbol((1, 2), (3, 3))
    with pytest.raises(ValueError):
        ChenSymbol((1,), (0,))
    assert ChenSymbol((), ()) == SYMBOL_UNIT
    assert str(ChenSymbol((1, -2), (3, 1))) == "<[1,-2];[3,1]>"
    assert str(SYMBOL_UNIT) == "1"


def test_independent():
    assert independent(ChenSymbol((2,), (1,)), ChenSymbol((3,), (2,)))
    assert not independent(ChenSymbol((2,), (1,)), ChenSymbol((3,), (1,)))
    assert independent(SYMBOL_UNIT, ChenSymbol((2, 3), (1, 5)))
    assert independent(SYMBOL_UNIT, SYMBOL_UNIT)


def test_symbol_product_case1_prefixes_zero():
    for t in (-3, 0, 5):
        result = symbol_product(ChenSymbol((0,), (1,)), ChenSymbol((t,), (2,)))
        assert result == SymbolLinComb.basis(ChenSymbol((0, t), (1, 2)))


def test_symbol_product_interleaves_labels():
    result = symbol_product(ChenSymbol((1,), (1,)), ChenSymbol((1,), (2,)))
    assert result == SymbolLinComb.basis(ChenSymbol((1, 1), (1, 2))) + SymbolLinComb.basis(
        ChenSymbol((1, 1), (2, 1))
    )


def test_symbol_product_unit():
    sym = ChenSymbol((1,), (1,))
    assert symbol_product(sym, SYMBOL_UNIT) == SymbolLinComb.basis(sym)
    assert symbol_product(SYMBOL_UNIT, sym) == SymbolLinComb.basis(sym)


def test_symbol_product_rejects_shared_labels():
    with pytest.raises(ValueError, match="not independent"):
        symbol_product(ChenSymbol((1,), (1,)), ChenSymbol((2,), (1,)))


def test_opS_J():
    x = SymbolLinComb.basis(ChenSymbol((2, 3), (1, 2)))
    assert opS_J(x) == SymbolLinComb.basis(ChenSymbol((1, 3), (1, 2)))
    assert opS_J(SymbolLinComb.basis(SYMBOL_UNIT)) == SymbolLinComb.zero()
    start = SymbolLinComb.basis(ChenSymbol((0,), (1,)))
    assert opS_J(opS_I(start)) == start


def test_opS_I():
    assert opS_I(SymbolLinComb.basis(ChenSymbol((0,), (1,)))) == SymbolLinComb.basis(
        ChenSymbol((1,), (1,))
    )
    assert opS_I(SymbolLinComb.basis(ChenSymbol((-1, 2), (3, 1)))) == SymbolLinComb.basis(
        ChenSymbol((0, 2), (3, 1))
    )
    x = 2 * SymbolLinComb.basis(ChenSymbol((0,), (1,))) - SymbolLinComb.basis(
        ChenSymbol((1,), (2,))
    )
    assert opS_I(x) == 2 * SymbolLinComb.basis(ChenSymbol((1,), (1,))) - SymbolLinComb.basis(
        ChenSymbol((2,), (2,))
    )
    with pytest.raises(ValueError):
        opS_I(SymbolLinComb.basis(SYMBOL_UNIT))


def test_phi_project():
    x = SymbolLinComb.basis(ChenSymbol((1, 1), (1, 2))) + SymbolLinComb.basis(
        ChenSymbol((1, 1), (2, 1))
    )
    assert phi_project(x) == 2 * LinComb.basis((1, 1))
    assert phi_project(SymbolLinComb.basis(SYMBOL_UNIT)) == LinComb.basis(())
    assert phi_project(3 * SymbolLinComb.basis(ChenSymbol((-1,), (7,)))) == 3 * LinComb.basis(
        (-1,)
    )


def _is_shuffle_of(merged, left, right):
    # greedy two-pointer check that `merged` interleaves left and right
    if len(merged) != len(left) + len(right):
        return False
    i = j = 0
    for x in merged:
        if i < len(left) and left[i] == x:
            i += 1
        elif j < len(right) and right[j] == x:
            j += 1
        else:
            return False
    return i == len(left) and j == len(right)


@given(symbol_pairs())
def test_label_rows_shuffle(pair):
    a, b = pair
    for sym in symbol_product(a, b).support():
        assert len(set(sym.labels)) == len(sym.labels)
        assert _is_shuffle_of(sym.labels, a.labels, b.labels)
        assert sym.depth == a.depth + b.depth


@given(symbol_pairs())
def test_phi_is_a_homomorphism(pair):
    a, b = pair
    assert phi_project(symbol_product(a, b)) == ext_shuffle(a.exponents, b.exponents)


@given(symbol_pairs())
def test_leibniz_for_symbol_J(pair):
    a, b = pair

    def product_lin(x, y):
        acc = SymbolLinComb.zero()
        for sa, ca in x.terms():
            for sb, cb in y.terms():
                acc = acc + ca * cb * symbol_product(sa, sb)
        return acc

    xa, xb = SymbolLinComb.basis(a), SymbolLinComb.basis(b)
    lhs = opS_J(symbol_product(a, b))
    rhs = product_lin(opS_J(xa), xb) + product_lin(xa, opS_J(xb))
    assert lhs == rhs


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_locality_associativity(seed):
    rng = random.Random(seed)
    depths = [rng.randint(0, 2) for _ in range(3)]
    labels = rng.sample(range(1, 20), sum(depths))
    syms = []
    pos = 0
    for d in depths:
        exps = tuple(rng.randint(-2, 2) for _ in range(d))
        syms.append(ChenSymbol(exps, tuple(labels[pos : pos + d])))
        pos += d
    a, b, c = syms

    def product_lin(x, y):
        acc = SymbolLinComb.zero()
        for sa, ca in x.terms():
            for sb, cb in y.terms():
                acc = acc + ca * cb * symbol_product(sa, sb)
        return acc

    lhs = product_lin(symbol_product(a, b), SymbolLinComb.basis(c))
    rhs = product_lin(SymbolLinComb.basis(a), symbol_product(b, c))
    assert lhs == rhs


def test_make_independent():
    a = ChenSymbol((1, 2), (1, 4))
    b = ChenSymbol((3,), (4,))
    b2 = make_independent(a, b)
    assert independent(a, b2)
    assert b2.exponents == b.exponents
    assert b2.labels == (5,)
    # already independent symbols come back unchanged
    c = ChenSymbol((3,), (9,))
    assert make_independent(a, c) is c


def test_symbol_json():
    x = symbol_product(ChenSymbol((1,), (1,)), ChenSymbol((1,), (2,)))
    assert x.to_json_dict() == {
        "terms": [
            {"coef": "1", "comp": [1, 1], "labels": [1, 2]},
            {"coef": "1", "comp": [1, 1], "labels": [2, 1]},
        ]
    }


def _assert_valid_symbol(sym):
    # result symbols skip the constructor's checks; they must pass them anyway
    assert type(sym.exponents) is tuple and type(sym.labels) is tuple
    assert len(sym.exponents) == len(sym.labels)
    assert all(type(x) is int for x in sym.exponents + sym.labels)
    assert ChenSymbol(sym.exponents, sym.labels) == sym


@given(symbol_pairs(min_entry=-6, max_entry=6))
def test_product_symbols_pass_the_constructor_checks(pair):
    a, b = pair
    for sym in symbol_product(a, b).support():
        _assert_valid_symbol(sym)


def test_product_symbols_with_the_unit_pass_the_constructor_checks():
    sym = ChenSymbol((-2, 0, 3), (4, 1, 2))
    for a, b in ((sym, SYMBOL_UNIT), (SYMBOL_UNIT, sym), (SYMBOL_UNIT, SYMBOL_UNIT)):
        (term,) = symbol_product(a, b).support()
        _assert_valid_symbol(term)
        assert term == (sym if a.depth + b.depth else SYMBOL_UNIT)

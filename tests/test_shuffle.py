from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compositions
from extshuffle import (
    ChenSymbol,
    LinComb,
    SYMBOL_UNIT,
    SymbolLinComb,
    UNIT,
    ext_shuffle,
    ext_shuffle_lin,
    is_leading_positive,
    op_I,
    op_J,
    rho_decode,
    rho_encode,
    stuffle,
    symbol_product,
    word_from_str,
    word_shuffle,
    word_to_str,
)
from test_symbols import symbol_pairs


def lc(*terms):
    return LinComb(terms)


# ---------------------------------------------------------------------------
# five worked single-entry products, one per case of the unit-step
# recursion; the engine folds its two zero-peeling cases into the Leibniz
# sums as their J^0 terms, so it computes them in three sign cases


def test_case1_zero_times_negative():
    assert ext_shuffle((0,), (-1,)) == lc(((0, -1), 1))


def test_case2_positive_times_zero():
    assert ext_shuffle((1,), (0,)) == lc(((0, 1), 1))


def test_case3_positive_times_positive():
    assert ext_shuffle((1,), (1,)) == lc(((1, 1), 2))


def test_case4_positive_times_negative():
    assert ext_shuffle((1,), (-1,)) == lc(((-1, 1), 1), ((0, 0), -1))


def test_case5_negative_times_zero():
    assert ext_shuffle((-1,), (0,)) == lc(((-1, 0), 1), ((0, -1), -1))


def test_unit_is_two_sided_identity():
    assert ext_shuffle(UNIT, (5, -2)) == lc(((5, -2), 1))
    assert ext_shuffle((5, -2), UNIT) == lc(((5, -2), 1))
    assert ext_shuffle(UNIT, UNIT) == LinComb.basis(UNIT)


@given(compositions(-4, 4, 4))
def test_unit_law_holds_everywhere(comp):
    assert ext_shuffle(UNIT, comp) == LinComb.basis(comp)
    assert ext_shuffle(comp, UNIT) == LinComb.basis(comp)


def test_two_times_two():
    # classical: the square of the weight-2 series expands with coefficients 2 and 4
    assert ext_shuffle((2,), (2,)) == lc(((2, 2), 2), ((3, 1), 4))


def test_non_commutativity_witness():
    assert ext_shuffle((0,), (-1,)) != ext_shuffle((-1,), (0,))


@given(symbol_pairs(min_entry=-4, max_entry=4))
@example((ChenSymbol((1,), (1,)), SYMBOL_UNIT))
@example((ChenSymbol((3,), (1,)), SYMBOL_UNIT))
@example((ChenSymbol((2, -5), (1, 2)), SYMBOL_UNIT))
@example((ChenSymbol((1, 0, 4), (1, 2, 3)), SYMBOL_UNIT))
def test_boundary_law_for_leading_positive(pair):
    # the zero-peeling rules, which the engine computes as the J^0 terms of
    # its Leibniz sums: [0,a'] x b = [0, a' x b] for every b, and
    # a x [0,b'] = [0, a x b'] when a leads positive; at stride 2 every
    # result term starts with exponent 0 and the zero factor's first label
    sa, sb = pair
    a, b = sa.exponents, sb.exponents
    peeled = LinComb({(0,) + comp: c for comp, c in ext_shuffle(a, b).items()})
    peeled_symbols = SymbolLinComb(
        {ChenSymbol((0,) + t.exponents, (13,) + t.labels): c
         for t, c in symbol_product(sa, sb).items()}
    )
    assert ext_shuffle((0,) + a, b) == peeled
    assert symbol_product(ChenSymbol((0,) + a, (13,) + sa.labels), sb) == peeled_symbols
    if a and a[0] > 0:
        assert ext_shuffle(a, (0,) + b) == peeled
        assert symbol_product(sa, ChenSymbol((0,) + b, (13,) + sb.labels)) == peeled_symbols


# ---------------------------------------------------------------------------
# bilinear extension


def test_ext_shuffle_lin_examples():
    assert ext_shuffle_lin(2 * LinComb.basis((0,)), LinComb.basis((-1,))) == lc(
        ((0, -1), 2)
    )
    assert ext_shuffle_lin(LinComb.zero(), LinComb.basis((7, 7))) == LinComb.zero()
    assert ext_shuffle_lin(
        LinComb.basis((1,)) + LinComb.basis((0,)), LinComb.basis((0,))
    ) == lc(((0, 1), 1), ((0, 0), 1))


def test_ext_shuffle_lin_drops_the_terms_that_cancel():
    # [1] x [0] = [0,1] = [0] x [1], so those two products cancel in full
    x = LinComb.basis((1,)) + LinComb.basis((0,))
    y = LinComb.basis((0,)) - LinComb.basis((1,))
    assert dict(ext_shuffle_lin(x, y).items()) == {(0, 0): 1, (1, 1): -2}


@given(compositions(-2, 2, 2), compositions(-2, 2, 2), st.integers(-3, 3), st.integers(-3, 3))
def test_bilinearity(a, b, ca, cb):
    x = LinComb.basis(a, ca)
    y = LinComb.basis(b, cb)
    assert ext_shuffle_lin(x, y) == ca * cb * ext_shuffle(a, b)


def test_rational_coefficients_distribute_exactly():
    x = Fraction(1, 3) * LinComb.basis((1,))
    y = Fraction(3, 2) * LinComb.basis((1,))
    assert ext_shuffle_lin(x, y) == Fraction(1, 2) * ext_shuffle((1,), (1,))


# ---------------------------------------------------------------------------
# algebraic laws


@given(compositions(-2, 2, 2), compositions(-2, 2, 2), compositions(-2, 2, 1))
@settings(max_examples=150)
def test_associativity_sampled(a, b, c):
    lhs = ext_shuffle_lin(ext_shuffle(a, b), LinComb.basis(c))
    rhs = ext_shuffle_lin(LinComb.basis(a), ext_shuffle(b, c))
    assert lhs == rhs


@given(compositions(-4, 4, 3), compositions(-4, 4, 3))
def test_leibniz_rule(a, b):
    xa, xb = LinComb.basis(a), LinComb.basis(b)
    lhs = op_J(ext_shuffle(a, b))
    rhs = ext_shuffle_lin(op_J(xa), xb) + ext_shuffle_lin(xa, op_J(xb))
    assert lhs == rhs


@given(compositions(-3, 3, 3, min_depth=1), compositions(-3, 3, 3, min_depth=1))
def test_rota_baxter_identity_on_positive_depth(a, b):
    xa, xb = op_I(LinComb.basis(a)), op_I(LinComb.basis(b))
    lhs = ext_shuffle_lin(xa, xb)
    rhs = op_I(ext_shuffle_lin(LinComb.basis(a), xb)) + op_I(
        ext_shuffle_lin(xa, LinComb.basis(b))
    )
    assert lhs == rhs


@given(compositions(-4, 4, 3), compositions(-4, 4, 3))
def test_product_is_depth_graded(a, b):
    product = ext_shuffle(a, b)
    assert all(len(t) == len(a) + len(b) for t in product.support())


def test_basis_products_never_vanish_at_small_depth():
    import itertools

    comps = [()] + [
        c for d in (1, 2) for c in itertools.product(range(-4, 5), repeat=d)
    ]
    assert all(ext_shuffle(a, b) for a in comps for b in comps)


def leading_positive_compositions(max_depth=3):
    # positive first entry, arbitrary tail
    return st.tuples(
        st.integers(1, 4),
        st.lists(st.integers(-4, 4), max_size=max_depth - 1),
    ).map(lambda ht: (ht[0],) + tuple(ht[1]))


@given(leading_positive_compositions(), leading_positive_compositions())
def test_leading_positive_closure(a, b):
    assert is_leading_positive(ext_shuffle(a, b))


@given(compositions(-4, 0, 3), compositions(-4, 0, 3))
def test_nonpositive_entries_are_closed(a, b):
    for term in ext_shuffle(a, b).support():
        assert all(e <= 0 for e in term)


def test_is_leading_positive_examples():
    assert is_leading_positive(2 * LinComb.basis((3, -5)))
    assert not is_leading_positive(LinComb.basis((0, 4)))
    assert not is_leading_positive(LinComb.basis(UNIT))
    assert is_leading_positive(ext_shuffle((2,), (1,)))


# ---------------------------------------------------------------------------
# word encoding and the classical oracle


def test_rho_encode_examples():
    assert rho_encode((2, 1)) == (0, 1, 1)
    assert rho_encode((3,)) == (0, 0, 1)
    assert rho_encode(UNIT) == ()


def test_rho_encode_rejects_nonpositive():
    with pytest.raises(ValueError):
        rho_encode((0,))
    with pytest.raises(ValueError):
        rho_encode((2, -1))


def test_rho_decode_rejects_other_letters():
    with pytest.raises(ValueError, match="letters must be 0 or 1"):
        rho_decode((2, 1))


def test_rho_decode_examples():
    assert rho_decode((0, 0, 1, 1)) == (3, 1)
    assert rho_decode((1,)) == (1,)
    assert rho_decode(()) == UNIT
    with pytest.raises(ValueError):
        rho_decode((1, 0))


@given(compositions(1, 6, 4))
def test_rho_round_trip(comp):
    word = rho_encode(comp)
    assert word == () or word[-1] == 1
    assert len([x for x in word if x == 1]) == len(comp)
    assert len(word) == sum(comp)
    assert rho_decode(word) == comp


def test_word_shuffle_examples():
    x1 = (1,)
    assert word_shuffle(x1, x1) == {(1, 1): 2}
    assert word_shuffle((0, 1), (1,)) == {(0, 1, 1): 2, (1, 0, 1): 1}
    assert word_shuffle((), (0, 1, 1)) == {(0, 1, 1): 1}


def test_word_str_round_trip():
    assert word_to_str((0, 1, 1)) == "011"
    assert word_from_str("011") == (0, 1, 1)
    assert word_from_str("") == ()
    with pytest.raises(ValueError):
        word_from_str("012")


def words(max_length=7):
    return st.lists(st.integers(0, 1), max_size=max_length).map(tuple)


@given(words(), words())
def test_word_shuffle_matches_brute_force(u, v):
    # each interleaving is a choice of the positions that the letters of u take
    length = len(u) + len(v)
    expected = Counter()
    for places in combinations(range(length), len(u)):
        left, right = iter(u), iter(v)
        expected[tuple(next(left if i in places else right) for i in range(length))] += 1
    assert word_shuffle(u, v) == dict(expected)


@given(compositions(1, 4, 3), compositions(1, 4, 3))
def test_classical_restriction_matches_word_shuffle(a, b):
    encoded = {rho_encode(t): c for t, c in ext_shuffle(a, b).items()}
    assert encoded == word_shuffle(rho_encode(a), rho_encode(b))


# ---------------------------------------------------------------------------
# quasi-shuffle


def test_stuffle_examples():
    assert stuffle((2,), (3,)) == lc(((2, 3), 1), ((3, 2), 1), ((5,), 1))
    assert stuffle((0,), (0,)) == lc(((0, 0), 2), ((0,), 1))
    assert stuffle(UNIT, (-1,)) == LinComb.basis((-1,))


@given(compositions(-3, 4, 4), compositions(-3, 4, 4))
def test_stuffle_matches_brute_force(a, b):
    # each term is a sequence of moves: take the next entry of a, of b, or
    # of both at once, merged; a sequence with `both` merges has
    # len(a) + len(b) - both moves
    expected = Counter()
    for both in range(min(len(a), len(b)) + 1):
        for moves in product("abm", repeat=len(a) + len(b) - both):
            if moves.count("m") != both or moves.count("a") != len(a) - both:
                continue
            left, right = iter(a), iter(b)
            term = []
            for move in moves:
                if move == "a":
                    term.append(next(left))
                elif move == "b":
                    term.append(next(right))
                else:
                    term.append(next(left) + next(right))
            expected[tuple(term)] += 1
    assert stuffle(a, b) == LinComb(expected.items())


@given(compositions(-3, 3, 3), compositions(-3, 3, 3))
def test_stuffle_is_commutative(a, b):
    assert stuffle(a, b) == stuffle(b, a)


@given(compositions(-3, 3, 2), compositions(-3, 3, 2), compositions(-3, 3, 2))
@settings(max_examples=100)
def test_stuffle_is_associative_on_basis(a, b, c):
    def stuffle_lin(x, y):
        acc = LinComb.zero()
        for ta, ca in x.terms():
            for tb, cb in y.terms():
                acc = acc + ca * cb * stuffle(ta, tb)
        return acc

    lhs = stuffle_lin(stuffle(a, b), LinComb.basis(c))
    rhs = stuffle_lin(LinComb.basis(a), stuffle(b, c))
    assert lhs == rhs


def test_repeated_calls_are_consistent():
    # products are cached; a second call must return an equal value
    first = ext_shuffle((2, -1), (3,))
    second = ext_shuffle((2, -1), (3,))
    assert first == second


def test_cache_is_safe_under_concurrent_use():
    import threading

    pairs = [((2, -2, 1), (-1, 3)), ((-3,), (4, 0)), ((1, 1), (1, 1, 1))]
    sequential = [ext_shuffle(a, b) for a, b in pairs]
    results = [[None] * len(pairs) for _ in range(8)]

    def worker(slot):
        for i, (a, b) in enumerate(pairs):
            results[slot][i] = ext_shuffle(a, b)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for row in results:
        assert row == sequential

"""Tests of the benchmark's reference computations, against hand-worked values.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from fractions import Fraction

import oracles


def test_rho_round_trip():
    for comp in [(1,), (2,), (3, 1), (1, 4, 2), ()]:
        assert oracles.rho_inverse(oracles.rho(comp)) == comp
    assert oracles.rho((2, 1)) == (0, 1, 1)


def test_word_shuffle_small_products():
    # x1 sh x1 = 2 x1x1; x0x1 sh x1 = x1x0x1 + 2 x0x1x1; zeta(2)^2 = 2 zeta(2,2) + 4 zeta(3,1)
    assert oracles.word_shuffle_product((1,), (1,)) == {(1, 1): 2}
    assert oracles.word_shuffle_product((2,), (1,)) == {(1, 2): 1, (2, 1): 2}
    assert oracles.word_shuffle_product((2,), (2,)) == {(2, 2): 2, (3, 1): 4}


def test_coefficients_count_interleavings():
    for a, b in [((1,), (1,)), ((2, 1), (3,)), ((1, 2), (2, 2))]:
        assert sum(oracles.word_shuffle_product(a, b).values()) == oracles.interleaving_count(a, b)
    assert oracles.interleaving_count((3,) * 5, (3,) * 5) == 155117520


def test_stuffle_small_products():
    assert oracles.stuffle_product((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert oracles.stuffle_product((1, 2), (3,)) == {
        (1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1, (1, 5): 1, (4, 2): 1}
    assert oracles.stuffle_product((), (4, -1)) == {(4, -1): 1}


def test_chen_fraction_value():
    one = {1: Fraction(1), 2: Fraction(1)}
    assert oracles.chen_fraction_value((1, 1), (1, 2), one) == Fraction(1, 2)
    point = {1: Fraction(1, 2), 2: Fraction(1, 3)}
    # (x1 + x2)^-2 * x2^1
    assert oracles.chen_fraction_value((2, -1), (1, 2), point) == Fraction(36, 25) * Fraction(1, 3)


def test_exact_partial_sums():
    assert oracles.exact_partial_sum((2,), 3) == 1 + Fraction(1, 4) + Fraction(1, 9)
    assert oracles.exact_partial_sum((2, 1), 3) == Fraction(5, 12)
    assert oracles.exact_partial_sum((4, -1), 3) == Fraction(1, 16) + Fraction(3, 81)
    assert oracles.exact_partial_sum((2, 1, 1), 2) == 0


def test_convergence_and_basis():
    assert oracles.is_convergent((4, -1)) and oracles.is_convergent(())
    assert not oracles.is_convergent((3, -1)) and not oracles.is_convergent((1,))
    assert len(oracles.convergent_basis(2, -1, 3)) == 9
    assert len(oracles.convergent_basis(3, -1, 3)) == 38


def test_closed_forms_are_consistent():
    table = {comp: value for comp, (value, _) in oracles.load_closed_forms().items()}
    digits = Fraction(1, 10**28)
    assert abs(table[(2,)] - Fraction("1.6449340668482264364724151666460")) < digits
    assert table[(2, 1)] == table[(3,)]  # Euler
    assert abs(table[(4, -1)] - (table[(2,)] - table[(3,)]) / 2) < digits
    assert abs(table[(5, -1)] - (table[(3,)] - table[(2, 1, 1)]) / 2) < digits
    assert abs(table[(2, 2)] - table[(2, 1, 1)] * 3 / 4) < digits
    assert abs(table[(3, 1)] - table[(2, 1, 1)] / 4) < digits


def test_partial_sums_approach_closed_forms():
    table = oracles.load_closed_forms()
    # tails: (5,-1) ~ 1/(4N^2), (3,) ~ 1/(2N^2)
    assert abs(oracles.exact_partial_sum((5, -1), 200) - table[(5, -1)][0]) < Fraction(1, 10**5)
    assert abs(oracles.exact_partial_sum((3,), 200) - table[(3,)][0]) < Fraction(2, 10**5)


def test_label_helpers():
    assert oracles.is_interleaving((1, 3, 2, 4), (1, 2), (3, 4))
    assert not oracles.is_interleaving((2, 1, 3, 4), (1, 2), (3, 4))
    assert oracles.project_labels({((1, 1), (1, 2)): 1, ((1, 1), (2, 1)): 1}) == {(1, 1): 2}
    assert oracles.first_entry_shift({(2, 1): 3, (): 1}, -1) == {(1, 1): 3}
    assert oracles.add_terms({(1,): 1}, {(1,): -1, (2,): 2}) == {(2,): 2}

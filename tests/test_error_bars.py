"""The error bars of ``zeta`` against the true values: a 200-bit reference
(``reference_mzv``, the Hölder convolution in fixed point) for every
admissible composition of weight at most 9, and two theorems on random
admissible compositions of weight at most 14: duality and the sum theorem."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extshuffle import LinComb, rho_decode, rho_encode, zeta, zeta_of_lincomb
from extshuffle.shuffle import X0, X1
from reference_mzv import mzv


def compositions(weight):
    """Every tuple of positive integers summing to ``weight``."""
    if weight == 0:
        return [()]
    return [(s,) + rest for s in range(1, weight + 1) for rest in compositions(weight - s)]


ADMISSIBLE = [comp for weight in range(2, 10) for comp in compositions(weight) if comp[0] >= 2]


def test_the_reference_matches_mpmath_to_1e_30():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = {
            (2,): mpmath.zeta(2),
            (3,): mpmath.zeta(3),
            (5,): mpmath.zeta(5),
            (3, 1): mpmath.pi**4 / 360,
        }
        for comp, value in exact.items():
            ref = mzv(comp)
            assert abs(mpmath.mpf(ref.numerator) / ref.denominator - value) < mpmath.mpf("1e-30"), comp


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_every_converged_estimate_is_within_its_error_bar_and_tol(tol):
    assert len(set(ADMISSIBLE)) == 255  # 2**(w - 2) of each weight w from 2 to 9
    converged = 0
    for comp in ADMISSIBLE:
        est = zeta(comp, tol)
        if est.converged:
            converged += 1
            error = abs(Fraction(est.value) - mzv(comp))
            assert error <= est.est_error, (comp, float(error), est)
            assert error <= tol, (comp, float(error), est)
    assert converged


# the word of an admissible composition of weight at most 14: x0, at most 12
# letters, x1
admissible_words = st.lists(st.sampled_from([X0, X1]), max_size=12).map(lambda mid: (X0, *mid, X1))
tols = st.sampled_from([1e-4, 1e-8])
# a deep composition that has not converged by this cutoff stops there, and its
# error bar is checked all the same; at 2**24 one example took over a second
MAX_N = 1 << 20


def dual(comp):
    """The composition of ``comp``'s word reversed with its letters swapped."""
    return rho_decode(tuple(X1 if letter == X0 else X0 for letter in reversed(rho_encode(comp))))


@settings(derandomize=True, max_examples=60)
@given(admissible_words, tols)
def test_duality_holds_within_the_error_bars(word, tol):
    comp = rho_decode(word)
    other = dual(comp)
    assert dual(other) == comp and sum(other) == sum(comp)
    a, b = zeta(comp, tol, max_n=MAX_N), zeta(other, tol, max_n=MAX_N)
    assert abs(a.value - b.value) <= a.est_error + b.est_error, (comp, other, a, b)


def admissible(weight, depth):
    """Every admissible composition of ``weight`` and ``depth``."""
    return [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, weight)))
        for cuts in combinations(range(2, weight), depth - 1)
    ]


# depths up to 6: deeper sets at 1e-8 take seconds each (weight 14, depth 10:
# 220 compositions, 2.6 s to 2**20)
@settings(derandomize=True, max_examples=25)
@given(st.integers(3, 14).flatmap(lambda w: st.tuples(st.just(w), st.integers(2, min(w - 1, 6)))), tols)
def test_the_sum_theorem_holds_within_the_error_bars(weight_depth, tol):
    # Granville 1997: the admissible compositions of weight w and depth k sum to zeta(w)
    weight, depth = weight_depth
    batch = admissible(weight, depth)
    assert len(set(batch)) == comb(weight - 2, depth - 1) and {sum(c) for c in batch} == {weight}
    gap = zeta_of_lincomb(LinComb(dict.fromkeys(batch, 1)) - LinComb.basis((weight,)), tol)
    assert abs(gap.value) <= gap.est_error, (weight, depth, gap)

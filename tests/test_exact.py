"""The Faulhaber reduction against brute-force truncated sums, its budget,
and the exact evaluator on long, deep and sub-floor inputs."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extshuffle import zeta, zeta_truncated
from extshuffle._exact import check_budget, dual, reduce
from extshuffle.convergence import is_convergent

EXACT = sys.modules["extshuffle._exact"]


def truncated(comp, cutoff):
    """``T_N``: the sum over ``cutoff >= n1 > ... > nk >= 1`` of ``prod n_i**-s_i``, exactly."""
    total = Fraction(0)
    for chain in combinations(range(1, cutoff + 1), len(comp)):
        term = Fraction(1)
        for n, s in zip(reversed(chain), comp):
            term *= Fraction(n) ** -s
        total += term
    return total


def keeps_truncated_sums(comp, den, terms):
    """Whether ``sum of coef * T_N(t) / den`` is ``T_N(comp)`` at N = 3, 6 and 9."""
    return all(
        truncated(comp, cutoff) == sum(Fraction(c, den) * truncated(t, cutoff) for t, c in terms)
        for cutoff in (3, 6, 9)
        if cutoff >= len(comp)
    )


convergent = st.lists(st.integers(-3, 5), min_size=1, max_size=4).map(tuple).filter(is_convergent)


@settings(max_examples=60, deadline=None)
@given(convergent)
def test_reduction_keeps_every_truncated_sum_and_ends_admissible(comp):
    den, terms = reduce(comp)
    assert den > 0 and terms
    assert all(t[0] >= 2 and min(t) >= 1 and c for t, c in terms), terms
    assert keeps_truncated_sums(comp, den, terms)


def test_closed_forms_reduce_exactly():
    # sum over m < n of m = n(n - 1)/2
    assert reduce((4, -1)) == (2, (((2,), 1), ((3,), -1)))
    assert reduce((5, -1)) == (2, (((3,), 1), ((4,), -1)))
    assert reduce((2, 1)) == (1, (((2, 1), 1),))


@pytest.mark.parametrize("comp", [(4, -1), (3, 0, 1), (6, -2, 1), (10, 2, -4), (5, -1, 3, 0)], ids=str)
def test_one_changed_coefficient_breaks_the_truncated_sums(comp):
    den, terms = reduce(comp)
    assert keeps_truncated_sums(comp, den, terms)
    for i in range(len(terms)):
        changed = list(terms)
        changed[i] = (terms[i][0], terms[i][1] + 1)
        assert not keeps_truncated_sums(comp, den, changed), (comp, i)


def test_a_part_behind_a_prefix_is_reduced_once_and_shared(monkeypatch):
    # (3, 2, 0, 1) and (4, 2, 0, 1) share the part (2, 0, 1) after their prefix
    monkeypatch.setattr(EXACT, "_PARTS", {})
    first, second = reduce((3, 2, 0, 1)), reduce((4, 2, 0, 1))
    assert list(EXACT._PARTS) == [(2, 0, 1)]
    part = EXACT._PARTS[(2, 0, 1)]
    assert first == (part[0], tuple(((3,) + t, c) for t, c in part[1]))
    assert second == (part[0], tuple(((4,) + t, c) for t, c in part[1]))
    # a part whose steps reach its own first entry is expanded whole
    den, terms = reduce((5, 1, -1, 2))
    assert keeps_truncated_sums((5, 1, -1, 2), den, terms)


def test_dual_reverses_the_word_and_swaps_its_letters():
    assert dual((2,)) == (2,)
    assert dual((3,)) == (2, 1)
    assert dual((2, 1)) == (3,)
    assert dual((4, 2)) == (2, 2, 1, 1)
    assert all(dual(dual(t)) == t for t in [(2,), (3, 1, 2), (5, 1, 1), (2, 2, 2)])


@pytest.mark.parametrize("comp", [(400, -397), (200, -150), (400, -397) + (1,) * 2998, (4, -1) * 9],
                         ids=["400,-397", "200,-150", "400,-397,1,...", "(4,-1)*9"])
def test_inputs_beyond_the_budget_fail_before_any_work(monkeypatch, comp):
    def no_work(*args):
        raise AssertionError("reduced an input beyond the budget")

    monkeypatch.setattr(EXACT, "_expand", no_work)
    monkeypatch.setattr(EXACT, "reduce", no_work)
    with pytest.raises(ValueError, match="beyond the reduction budget"):
        check_budget(comp)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="beyond the reduction budget"):
        zeta(comp, 1e-6)
    assert time.perf_counter() - start < 1


def test_the_budget_admits_the_largest_inputs_the_tests_use():
    for comp in [(60, -57), (101, -98), (4, -1) * 8, (10,) + (0,) * 8]:
        check_budget(comp)


@pytest.mark.parametrize("comp", [(10**6,), (2,) * 40, (2,) + (1,) * 3000], ids=["10**6", "(2,)*40", "(2,1,...,1)"])
def test_long_and_deep_words_converge(comp):
    start = time.perf_counter()
    est = zeta(comp, 1e-6)
    assert est.converged, est
    assert time.perf_counter() - start < 10


def test_the_deep_values_lie_in_their_error_bars():
    # zeta({2}**40) = pi**80 / 81!, and zeta(10**6) and its dual are 1 + 2**-10**6 + ...
    assert abs(zeta((2,) * 40, 1e-6).value) <= zeta((2,) * 40, 1e-6).est_error
    for comp in [(10**6,), (2,) + (1,) * 3000]:
        est = zeta(comp, 1e-6)
        assert abs(est.value - 1.0) <= est.est_error


def test_a_sub_floor_tolerance_returns_at_once():
    start = time.perf_counter()
    est = zeta((2,), 1e-17)
    assert time.perf_counter() - start < 0.1
    assert not est.converged


def compositions(weight):
    if weight == 0:
        return [()]
    return [(s,) + rest for s in range(1, weight + 1) for rest in compositions(weight - s)]


def test_every_admissible_composition_of_weight_up_to_12_converges_at_1e_8():
    admissible = [c for w in range(2, 13) for c in compositions(w) if c[0] >= 2]
    assert len(admissible) == 2047
    assert all(zeta(c, 1e-8).converged for c in admissible)


@pytest.mark.parametrize("cutoff", [10, 1000])
def test_every_truncated_sum_lies_below_the_upper_end(cutoff):
    # every term is positive, so each partial sum is below the series
    for comp in [c for w in range(2, 8) for c in compositions(w) if c[0] >= 2]:
        est = zeta(comp, 1e-8)
        assert zeta_truncated(comp, cutoff) <= est.value + est.est_error, comp


def test_the_package_imports_no_test_oracle():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, extshuffle; extshuffle.zeta((4, -1), 1e-6); print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert not {"reference_mzv", "reference_sweep", "reference_product"} & set(done.stdout.split())

import json
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extshuffle import (
    ChenSymbol,
    UNIT,
    ZetaEstimate,
    enumerate_relations,
    ext_shuffle,
    LinComb,
    verify_homomorphism,
    zeta,
    zeta_of_lincomb,
    zeta_truncated,
)
from extshuffle.convergence import is_convergent
from extshuffle import _rowfile
from extshuffle.zeta import _constant_rows, _evaluate, _fit_rows
from make_fit_rows import build as build_rows_file
from reference_rows import reference_rows

ZETA_MODULE = sys.modules["extshuffle.zeta"]


def brute_truncated(comp, cutoff):
    """Independent oracle: exact nested sum over n1 > ... > nk, n1 <= cutoff."""
    k = len(comp)
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for chain in combinations(range(1, cutoff + 1), k):
        ns = chain[::-1]  # decreasing
        term = Fraction(1)
        for n, s in zip(ns, comp):
            term *= Fraction(n) ** (-s)
        total += term
    return total


@pytest.mark.parametrize(
    "comp",
    [(2,), (3,), (2, 1), (2, 2), (4, -1), (5, 0, -1), (6, -2, 1), (3, 0, 1)],
)
def test_truncated_sum_matches_brute_force(comp):
    expected = float(brute_truncated(comp, 40))
    assert zeta_truncated(comp, 40) == pytest.approx(expected, abs=1e-12)


def test_truncated_sum_small_cutoffs():
    assert zeta_truncated((2,), 10) == pytest.approx(1.5497677311665408, abs=1e-14)
    assert zeta_truncated((2, 1), 2) == pytest.approx(0.25, abs=1e-15)
    assert zeta_truncated(UNIT, 5) == 1.0


def test_truncated_sum_validation():
    with pytest.raises(ValueError):
        zeta_truncated((1,), 100)  # divergent
    with pytest.raises(ValueError):
        zeta_truncated((2, 1), 1)  # cutoff below depth


def nested_sum(comp, cutoff, number=Fraction):
    """The truncated sum by the level recursion, in ``number`` arithmetic."""
    levels = [number(1)] + [number(0)] * len(comp)  # B_j(n - 1), innermost first
    for n in range(1, cutoff + 1):
        for j in range(len(comp), 0, -1):
            levels[j] += number(n) ** -comp[-j] * levels[j - 1]
    return levels[-1]


@pytest.mark.parametrize("comp", [(2,), (2, 1), (4, -1), (5, 0, -1)], ids=str)
def test_truncated_sum_at_run_edges_matches_exact_sum(comp):
    # the sweep sums runs of 256 values in float64; cutoffs just inside, at
    # and past a run's end must keep full float64 accuracy
    for cutoff in (1, 255, 256, 257, 1025):
        if cutoff >= len(comp):
            exact = nested_sum(comp, cutoff)
            value = zeta_truncated(comp, cutoff)
            assert abs(Fraction(value) - exact) <= 1e-15 * exact, (cutoff, value)


@pytest.mark.parametrize("comp", [(2, 1), (4, -1)], ids=str)
def test_truncated_sum_across_a_stretch_matches_mpmath(comp):
    # 70,001 crosses the 2**16 stretch boundary and is no multiple of the run
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        exact = nested_sum(comp, 70_001, mpmath.mpf)
        assert abs(zeta_truncated(comp, 70_001) - exact) <= 1e-15 * exact


def test_overflowing_partial_sums_raise_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for comp in [(400, -397), (200, -150)]:
            with pytest.raises(ValueError, match="overflow float64"):
                zeta(comp, 1e-6)
        with pytest.raises(ValueError, match="overflow float64"):
            zeta_truncated((400, -397), 2000)
        # n**-200 underflows at n = 100, but the sum stays finite
        assert zeta_truncated((200, -150), 100) == pytest.approx(1.8308219467805686e-49, rel=1e-12)
        assert zeta((60, -57), 1e-6).converged


def test_monotone_refinement_for_nonnegative_entries():
    previous = 0.0
    for cutoff in (4, 8, 16, 32, 64):
        value = zeta_truncated((3, 0, 1), cutoff)
        assert value >= previous
        previous = value


def test_zeta_basel():
    est = zeta((2,), 1e-6)
    assert est.converged
    assert est.est_error <= 1e-6
    assert abs(est.value - 1.6449340668) < 1e-6


def test_zeta_euler_depth_two():
    # the weight-3 double series collapses to the single weight-3 series
    est = zeta((2, 1), 1e-6, max_n=1 << 26)
    assert est.converged
    assert abs(est.value - 1.2020569032) < 1e-6


def test_zeta_negative_entry_closed_form():
    # sum over m < n of m = n(n-1)/2 telescopes the double series with
    # entries (4, -1) into half the difference of the single series at 2 and 3;
    # the truncated references get an integral tail correction, 1/N for the
    # inverse-square series (error ~ 1/(2N^2)) and 1/(2N^2) for inverse cubes
    big = 1 << 23
    ref2 = zeta_truncated((2,), big) + 1.0 / big
    ref3 = zeta_truncated((3,), big) + 0.5 / big**2
    closed_form = (ref2 - ref3) / 2
    est = zeta((4, -1), 1e-8, max_n=1 << 27)
    assert est.converged
    assert abs(est.value - closed_form) < 1e-8
    est6 = zeta((4, -1), 1e-6)
    assert est6.converged
    assert abs(est6.value - closed_form) < 1e-6


def test_zeta_unit():
    est = zeta(UNIT, 1e-9)
    assert est.value == 1.0
    assert est.converged
    assert est.est_error == 0.0


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta((1,), 1e-6)
    with pytest.raises(ValueError):
        zeta((2,), -1e-6)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0])
def test_zeta_rejects_tolerance_that_cannot_stop_honestly(tol):
    for comp in [(2,), UNIT]:
        with pytest.raises(ValueError, match="tolerance"):
            zeta(comp, tol)


@pytest.mark.parametrize("max_n", [-5, 0, 1, 1024])
def test_zeta_rejects_cap_with_fewer_than_two_checkpoints(max_n):
    for comp in [(2,), UNIT]:
        with pytest.raises(ValueError, match="max_n"):
            zeta(comp, 1e-6, max_n=max_n)
    with pytest.raises(ValueError, match="max_n"):
        verify_homomorphism((2,), (3,), 1e-4, max_n=max_n)


def test_zeta_smallest_cap_compares_two_estimates():
    est = zeta((2,), 1e-18, max_n=1025)
    assert est.cutoff == 1025
    assert 0 < est.est_error < float("inf")


def test_zeta_reports_nonconvergence_at_cap():
    est = zeta((2,), 1e-18, max_n=1 << 12)
    assert not est.converged
    assert est.cutoff == 1 << 12
    assert est.est_error > 1e-18


def test_zeta_of_lincomb():
    assert zeta_of_lincomb(LinComb.zero(), 1e-6).value == 0.0
    single = zeta_of_lincomb(LinComb.basis((2,)), 1e-6)
    direct = zeta((2,), 1e-6)
    assert single.value == pytest.approx(direct.value, abs=0)
    expansion = ext_shuffle((2,), (2,))  # 2[2,2] + 4[3,1]
    est = zeta_of_lincomb(expansion, 1e-6)
    assert abs(est.value - 1.6449340668**2) < 2e-6


def test_verify_needs_converged_estimates_to_pass():
    # at a cap of 1025 the depth-9 terms have one fit order, so an unbounded
    # error bar would otherwise make an infinite tolerance
    report = verify_homomorphism((2, 1, 1, 1, 1), (2, 1, 1, 1), 1e-5, max_n=1025)
    assert report.tolerance == float("inf") and report.delta < report.tolerance
    assert not report.lhs.converged
    assert report.passed is False


def test_zeta_of_lincomb_rejects_divergent_terms():
    with pytest.raises(ValueError):
        zeta_of_lincomb(LinComb.basis((2,)) + LinComb.basis((1,)), 1e-6)


@pytest.mark.parametrize("pair", [((2,), (2,)), ((2,), (3,)), ((4, -1), (2,))])
def test_verify_homomorphism_passes(pair):
    a, b = pair
    report = verify_homomorphism(a, b, 1e-4)
    assert report.passed
    assert report.delta < report.tolerance
    assert report.expansion == ext_shuffle(a, b)


def test_verify_homomorphism_classical_value():
    report = verify_homomorphism((2,), (2,), 1e-5)
    assert report.passed
    assert report.lhs.value == pytest.approx(2.70581, abs=1e-4)
    assert report.rhs_value == pytest.approx(2.70581, abs=1e-4)


def lattice_sum(symbol: ChenSymbol, box: int) -> float:
    """Independent oracle for the summation-over-variables map: sum the
    fraction attached to `symbol` over the integer box {1..box}^depth."""
    k = symbol.depth
    grids = np.meshgrid(*([np.arange(1, box + 1, dtype=np.float64)] * k), indexing="ij")
    total = np.ones_like(grids[0])
    for j in range(k):
        linear = sum(grids[i] for i in range(j, k))
        total = total * linear ** float(-symbol.exponents[j])
    return float(total.sum())


@pytest.mark.parametrize(
    "exponents", [(2,), (3, 2), (4, -1)], ids=lambda e: str(list(e))
)
def test_summing_fraction_over_lattice_matches_zeta(exponents):
    # summing the Chen fraction over all positive integer variables is the
    # same nested series after the change of variables n_j = x_j + ... + x_k
    symbol = ChenSymbol(exponents, tuple(range(1, len(exponents) + 1)))
    box = 3000 if symbol.depth == 1 else 700
    eta = lattice_sum(symbol, box)
    zs = zeta(exponents, 1e-6).value
    assert eta == pytest.approx(zs, abs=5e-3)


def _closed_forms():
    """The nine closed-form points, valued by mpmath at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    z = mpmath.zeta
    return {
        (2,): z(2),
        (3,): z(3),
        (2, 2): 3 * z(4) / 4,
        (3, 1): z(4) / 4,
        (2, 1): z(3),
        (2, 1, 1): z(4),
        (2, 1, 1, 1): z(5),
        (4, -1): (z(2) - z(3)) / 2,
        (5, -1): (z(3) - z(4)) / 2,
    }


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_closed_forms_converge_within_their_error_bars(tol):
    for comp, exact in _closed_forms().items():
        est = zeta(comp, tol)
        assert est.converged, (comp, est)
        assert abs(est.value - float(exact)) <= est.est_error <= tol / 2, (comp, est)


def test_log_tailed_points_converge_with_the_default_cap():
    # their tails are (log N)**j / N: doubling alone never stabilized them
    # below 2**24 at this tolerance
    for comp, exact in [((2, 1), 1.2020569031595942), ((2, 1, 1), 1.0823232337111381),
                        ((2, 1, 1, 1), 1.0369277551433699)]:
        est = zeta(comp, 1e-6)
        assert est.converged
        assert est.cutoff <= 1 << 12
        assert abs(est.value - exact) < 1e-6


def test_tolerance_below_rounding_floor_never_converges():
    # the floor is at least eps * |S| because the fit row sums to one
    for comp in _closed_forms():
        est = zeta(comp, 1e-17, max_n=1 << 13)
        assert not est.converged
        assert est.cutoff == 1 << 13
        assert est.est_error > 1e-17 / 2


# the ordered pairs (depth <= 3, entries -1..3) that the cutoff-doubling
# evaluator reported as FAIL at 1e-4, each 0.3-11% over its tolerance
FORMER_FALSE_FAILS = [
    ((2, 2), (2, 1, 3)), ((2, 3), (2, 1, 3)), ((3, 1), (2, 1, 2)), ((3, 1), (2, 1, 3)),
    ((3, 2), (2, 1, 2)), ((3, 2), (2, 1, 3)), ((3, 3), (2, 1, 2)), ((3, 3), (2, 1, 3)),
    ((2, 1, 2), (3, 1)), ((2, 1, 2), (3, 2)), ((2, 1, 2), (3, 3)), ((2, 1, 2), (2, 1, 2)),
    ((2, 1, 2), (2, 1, 3)), ((2, 1, 2), (3, 0, 3)), ((2, 1, 3), (2, 2)), ((2, 1, 3), (2, 3)),
    ((2, 1, 3), (3, 1)), ((2, 1, 3), (3, 2)), ((2, 1, 3), (3, 3)), ((2, 1, 3), (2, 1, 2)),
    ((2, 1, 3), (2, 1, 3)), ((2, 1, 3), (3, 0, 3)), ((3, 0, 3), (2, 1, 2)), ((3, 0, 3), (2, 1, 3)),
]


@pytest.mark.parametrize("pair", FORMER_FALSE_FAILS, ids=str)
def test_former_false_fails_pass(pair):
    report = verify_homomorphism(*pair, 1e-4)
    assert report.passed, report
    assert report.lhs.converged


# batches: the private evaluator is called directly, so the memo is bypassed


def test_product_terms_are_bitwise_the_same_in_a_batch_as_alone():
    terms = ext_shuffle((2, 1, 3), (3, 0, 3)).support()
    batch = _evaluate(terms, 1e-4, 1 << 24)
    for comp in terms:
        assert batch[comp] == _evaluate([comp], 1e-4, 1 << 24)[comp], comp


@settings(max_examples=25)
@given(
    st.lists(
        st.lists(st.integers(-1, 4), min_size=1, max_size=6).map(tuple).filter(is_convergent),
        min_size=1,
        max_size=12,
    )
)
def test_sampled_compositions_are_bitwise_the_same_in_a_batch_as_alone(comps):
    batch = _evaluate(comps + ext_shuffle((2, 1), (3, 0, 2)).support(), 1e-4, 1 << 24)
    for comp in comps:
        assert batch[comp] == _evaluate([comp], 1e-4, 1 << 24)[comp], comp


def test_mixed_cutoffs_in_one_batch_match_their_solo_results():
    # zeta(2,1,1,1) needs 2**18 at 1e-10 and shares its suffixes with members
    # that leave the batch at cutoffs from 2**10 to 2**16
    comps = [(2, 1, 1, 1), (2,), (3,), (4, -1), (3, 1), (2, 1), (2, 1, 1), (3, 1, 1),
             (5, 1, 1, 1), (4, 1, 1, 1), (3, 1, 1, 1)]
    batch = _evaluate(comps, 1e-10, 1 << 24)
    solo = {comp: _evaluate([comp], 1e-10, 1 << 24)[comp] for comp in comps}
    assert batch == solo
    assert solo[(2, 1, 1, 1)].cutoff == 1 << 18
    assert solo[(2,)].cutoff == solo[(3,)].cutoff == 1 << 10
    assert all(est.converged for est in solo.values())


def test_batch_rejects_a_divergent_term_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept before checking convergence")

    monkeypatch.setattr(ZETA_MODULE, "_advance", no_sweep)
    with pytest.raises(ValueError, match="not convergent"):
        _evaluate([(2,), (3, 1), (1, 2)], 1e-6, 1 << 24)


def test_memo_is_safe_under_concurrent_cold_use(monkeypatch):
    expansions = [ext_shuffle(a, b) for a, b in
                  [((2, 1), (3,)), ((2,), (3, 1)), ((2, 1), (2, 1)), ((3, 0, 1), (2,))]]
    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    sequential = [zeta_of_lincomb(x, 1e-6) for x in expansions]
    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    results = [None] * 8

    def worker(slot):
        order = expansions[slot % 4:] + expansions[:slot % 4]
        results[slot] = {order.index(x): zeta_of_lincomb(x, 1e-6) for x in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for slot, row in enumerate(results):
        shift = slot % 4
        assert [row[(i - shift) % 4] for i in range(4)] == sequential


def test_repeated_zeta_is_a_memo_lookup(monkeypatch):
    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    first = zeta((3, 1), 1e-6)

    def no_sweep(*args):
        raise AssertionError("swept a memoized composition again")

    monkeypatch.setattr(ZETA_MODULE, "_evaluate", no_sweep)
    assert zeta((3, 1), 1e-6) == first


def test_each_missing_term_is_evaluated_once(monkeypatch):
    # [2] x [2] = 2[2,2] + 4[3,1] and both factors are [2]: one batch holds each
    # composition once, and the memo for this tolerance is keyed by composition
    asked = []

    def recorded(comps, tol, max_n):
        asked.append(list(comps))
        return _evaluate(comps, tol, max_n)

    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    monkeypatch.setattr(ZETA_MODULE, "_evaluate", recorded)
    assert verify_homomorphism((2,), (2,), 1e-6).passed
    assert len(asked) == 1 and sorted(asked[0]) == [(2,), (2, 2), (3, 1)]
    assert list(ZETA_MODULE._MEMO) == [(1e-6, 1 << 24)]
    assert sorted(ZETA_MODULE._MEMO[1e-6, 1 << 24]) == [(2,), (2, 2), (3, 1)]
    verify_homomorphism((2,), (2,), 1e-6)
    assert len(asked) == 1


def test_zeta_of_the_zero_combination():
    assert zeta_of_lincomb(LinComb.zero(), 1e-6) == ZetaEstimate(0.0, 0, 0.0, True)


def test_zeta_checks_the_tolerance_before_convergence():
    with pytest.raises(ValueError, match="tolerance"):
        zeta((1,), float("inf"))


@pytest.mark.parametrize("tol, max_n", [(float("inf"), 1 << 24), (1e-6, 1024)])
def test_numeric_arguments_are_checked_before_any_work(monkeypatch, tol, max_n):
    def no_work(*args):
        raise AssertionError("worked before checking the arguments")

    monkeypatch.setattr(ZETA_MODULE, "_evaluate", no_work)
    monkeypatch.setattr(ZETA_MODULE, "ext_shuffle", no_work)
    with pytest.raises(ValueError, match="tolerance|max_n"):
        zeta_of_lincomb(LinComb.zero(), tol, max_n=max_n)
    with pytest.raises(ValueError, match="tolerance|max_n"):
        zeta_of_lincomb(LinComb.basis((2,)), tol, max_n=max_n)
    with pytest.raises(ValueError, match="tolerance|max_n"):
        verify_homomorphism((2,), (3,), tol, max_n=max_n)


def test_verify_checks_the_tolerance_before_convergence():
    with pytest.raises(ValueError, match="tolerance"):
        verify_homomorphism((1,), (2,), float("inf"))


def test_truncated_sum_checks_the_cutoff_before_convergence():
    with pytest.raises(ValueError, match="cutoff 0 is below the depth 1"):
        zeta_truncated((1,), 0)


def test_a_float_cap_or_cutoff_is_a_type_error_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("worked before checking the arguments")

    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    monkeypatch.setattr(ZETA_MODULE, "_evaluate", no_work)
    monkeypatch.setattr(ZETA_MODULE, "_advance", no_work)
    with pytest.raises(TypeError, match="max_n must be an integer, got 1000000.0"):
        zeta((2,), 1e-6, max_n=1e6)
    with pytest.raises(TypeError, match="max_n must be an integer"):
        verify_homomorphism((2,), (3,), 1e-4, max_n=1e5)
    with pytest.raises(TypeError, match="cutoff must be an integer, got 100.0"):
        zeta_truncated((2,), 100.0)


def test_a_cap_or_cutoff_beyond_exact_float64_n_is_rejected_before_any_work(monkeypatch):
    # the sweep holds n as float64, exact only up to 2**53
    def no_work(*args):
        raise AssertionError("worked before checking the arguments")

    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    monkeypatch.setattr(ZETA_MODULE, "_evaluate", no_work)
    monkeypatch.setattr(ZETA_MODULE, "_advance", no_work)
    for cap in (2**53 + 1, 2**63):
        with pytest.raises(ValueError, match=r"max_n must be at most 2\*\*53"):
            zeta((2,), 1e-6, max_n=cap)
        with pytest.raises(ValueError, match=r"max_n must be at most 2\*\*53"):
            verify_homomorphism((2,), (3,), 1e-4, max_n=cap)
        with pytest.raises(ValueError, match=r"max_n must be at most 2\*\*53"):
            zeta_of_lincomb(LinComb.basis((2,)), 1e-6, max_n=cap)
        with pytest.raises(ValueError, match=r"cutoff must be at most 2\*\*53"):
            zeta_truncated((2,), cap)
    with pytest.raises(TypeError, match="max_n must be an integer, got True"):
        zeta((2,), 1e-6, max_n=True)
    with pytest.raises(TypeError, match="cutoff must be an integer, got True"):
        zeta_truncated((2,), True)


def test_the_largest_cap_still_converges_at_the_first_cutoff():
    est = zeta((2,), 1e-6, max_n=2**53)
    assert est.converged and est.cutoff == 1024


def test_a_numpy_integer_cap_or_cutoff_still_computes():
    assert zeta((2,), 1e-6, max_n=np.int64(4096)) == zeta((2,), 1e-6, max_n=4096)
    assert zeta_truncated((2,), np.int64(100)) == zeta_truncated((2,), 100)


def test_a_first_cutoff_with_one_fit_order_keeps_doubling():
    # at 2**10 a depth-8 grid leaves a single fit order, so no error estimate
    assert zeta((2,) + (1,) * 7, 1e3).cutoff == 2048
    assert zeta((2,) + (1,) * 6, 1e3).cutoff == 1024


def fit_columns(cutoff, k):
    """The float64 model columns behind ``_fit_rows(cutoff, k)``, one list per
    window, built the same way here: the constant, then ``t**i * u**j`` for
    ``i = 1..orders`` and ``j < k``."""
    grid = ZETA_MODULE._grid(cutoff).astype(np.float64)
    orders = min(ZETA_MODULE._MAX_ORDER, (len(grid) // 2 - 1) // k)
    windows = []
    for start in (0, len(grid) // 4):
        n = grid[start:]
        t = n[0] / n
        u = np.log(n / n[0]) / np.log(n[-1] / n[0])
        windows.append([np.ones_like(n)] + [t**i * u**j for i in range(1, orders + 1) for j in range(k)])
    return windows


@pytest.mark.parametrize("k", range(1, 9))
def test_fit_rows_equal_the_gram_schmidt_oracle_bitwise_at_the_first_cutoff(k):
    for (_, rows, _), columns in zip(_fit_rows(1024, k), fit_columns(1024, k)):
        expected = np.array(reference_rows(columns)[k::k]).reshape(rows.shape)
        assert np.array_equal(rows, expected)


@pytest.mark.parametrize("cutoff, k", [(1 << 14, 4), (1 << 18, 6), (1 << 24, 8)])
def test_fit_rows_match_a_120_digit_oracle(cutoff, k):
    for (_, rows, norms), columns in zip(_fit_rows(cutoff, k), fit_columns(cutoff, k)):
        expected = np.array(reference_rows(columns, prec=120)[k::k])
        assert len(rows) and (np.abs(rows - expected).max(axis=1) <= 1e-17 * norms).all()


@pytest.mark.parametrize("cutoff", [1 << 10, 1 << 12, 1 << 18])
def test_fit_rows_keep_the_constant_and_annihilate_the_model(cutoff):
    # checked in exact arithmetic, with no oracle: the exact order-p row sums
    # to 1 and is orthogonal to every other column of the order-p model, so
    # the float64 row must do both up to its rounding
    slack = Fraction(1, 2**50)
    for k in range(1, 7):
        for (_, rows, _), columns in zip(_fit_rows(cutoff, k), fit_columns(cutoff, k)):
            exact = [[Fraction(v) for v in col.tolist()] for col in columns]
            for p, row in enumerate(rows.tolist(), 1):
                r = [Fraction(v) for v in row]
                bound = slack * sum(map(abs, r))
                assert abs(sum(r) - 1) <= bound, (k, p)
                for i, col in enumerate(exact[1 : 1 + p * k], 1):
                    assert abs(sum(map(mul, r, col))) <= bound * max(map(abs, col)), (k, p, i)


def test_constant_rows_scale_a_subnormal_entry_exactly():
    # the scale that makes 2**-1070 an integer is 2**1121, past float64's
    # range, so the columns must be scaled as exact integers, not in float64
    columns = [np.ones(5), np.array([1.0, 0.5, 2.0**-1070, 0.25, 0.125]), np.arange(5.0)]
    rows = _constant_rows(columns, [1, 2, 3])
    expected = reference_rows(columns, prec=120)
    assert rows[0] == [0.2] * 5
    assert np.abs(np.array(rows) - expected).max() <= 1e-15


def test_a_fresh_import_reads_no_rows_file_and_a_fit_loads_no_openssl():
    code = (
        "import sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
        "import extshuffle\n"
        "print(sum(p.endswith('fit_rows.bin') for p in opened), 'extshuffle._rowfile' in sys.modules)\n"
        "extshuffle.zeta((2,), 1e-6)\n"
        "print(sum(p.endswith('fit_rows.bin') for p in opened), '_hashlib' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # read once, at the first fit, and digested without hashlib, which loads
    # OpenSSL and 3.7 MB of resident memory
    assert done.stdout.split() == ["0", "False", "1", "False"]


def test_columns_one_ulp_off_miss_the_table_and_get_the_solvers_rows(monkeypatch):
    monkeypatch.setattr(_rowfile, "_table", _rowfile.load(_rowfile.PATH))
    k = 6
    columns = fit_columns(1024, k)[0]
    sizes = range(1 + k, len(columns) + 1, k)
    nudged = [col.copy() for col in columns]
    nudged[1][5] = np.nextafter(nudged[1][5], 2.0)  # t at the sixth grid point, one ulp up
    solved = []
    rows = _rowfile.rows(nudged, sizes, lambda *args: solved.append(args) or _constant_rows(*args))
    assert len(solved) == 1 and _rowfile.digest(nudged, sizes) not in _rowfile.load(_rowfile.PATH)
    assert rows.tobytes() == np.array(_constant_rows(nudged, sizes)).tobytes()
    # the rows moved far beyond any tolerance a near match could have used
    exact = np.array(_constant_rows(columns, sizes))
    assert np.abs(rows - exact).max() > 1e-4 * np.abs(exact).max()


def test_every_row_set_read_from_the_file_is_the_solvers_bitwise():
    shipped = _rowfile.load(_rowfile.PATH)
    assert len(shipped) == 30  # both windows of the 15 depths with a fit order at 2**10
    for k in range(1, 16):
        for (_, rows, _), columns in zip(_fit_rows(1024, k), fit_columns(1024, k)):
            sizes = range(1 + k, len(columns) + 1, k)
            solved = np.array(_constant_rows(columns, sizes)).tobytes()
            assert rows.tobytes() == solved
            hit = shipped.get(_rowfile.digest(columns, sizes))
            assert hit is None or hit.tobytes() == solved


def test_the_generator_reproduces_the_rows_file(monkeypatch):
    monkeypatch.setattr(_rowfile, "_table", None)  # build() replaces it; restored after
    built = build_rows_file()
    solved, shipped = _rowfile._table, _rowfile.load(_rowfile.PATH)
    with open(_rowfile.PATH, "rb") as f:
        committed = f.read()
    assert len(solved) == len(shipped) == 30
    if solved.keys() == shipped.keys():
        assert built == committed
    else:  # another numpy's columns: the windows it shares with the file have the file's rows
        assert all(solved[key].tobytes() == shipped[key].tobytes() for key in solved.keys() & shipped.keys())


def test_a_numpy_tolerance_leaks_no_numpy_types_and_a_bool_one_is_rejected(monkeypatch):
    # tol / 2 of an np.float64 made each converged flag a numpy.bool, and the
    # memo, keyed by the equal float, handed it to later float callers
    monkeypatch.setattr(ZETA_MODULE, "_MEMO", {})
    zeta((3,), np.float64(1e-3))
    est = zeta((3,), 1e-3)
    assert type(est.converged) is bool
    json.dumps(est._asdict())
    report = verify_homomorphism((2,), (3,), np.float64(1e-3))
    assert type(report.passed) is bool and type(report.tolerance) is float
    scan = enumerate_relations(1, (2, 3), np.float64(1e-3))
    assert scan.relations and all(type(rel.passed) is bool for rel in scan.relations)
    for tol in (True, False, np.True_, "1e-3"):
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            zeta((2,), tol)
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            zeta_of_lincomb(LinComb.zero(), tol)
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            verify_homomorphism((2,), (3,), tol)
        with pytest.raises(TypeError, match="tolerance must be a real number"):
            enumerate_relations(1, (2, 3), tol)
    with pytest.raises(ValueError, match=r"tolerance must be positive and finite, got 1000000000.*\.\.\.$"):
        zeta((2,), 10**400)

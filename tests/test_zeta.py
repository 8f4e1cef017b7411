import json
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from itertools import combinations

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
from extshuffle.zeta import _evaluate

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
        # beyond the reduction budget, refused before any work
        for comp in [(400, -397), (200, -150)]:
            with pytest.raises(ValueError, match="beyond the reduction budget"):
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
    # the cap bounds nothing: the smallest one gives the default's estimate
    est = zeta((2,), 1e-18, max_n=1025)
    assert est == zeta((2,), 1e-18)
    assert 0 < est.est_error < float("inf")


def test_zeta_reports_nonconvergence_at_cap():
    # below what float64 can show, without summing up to the cap
    est = zeta((2,), 1e-18, max_n=1 << 12)
    assert not est.converged
    assert est.cutoff < 1 << 12
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
    # below what float64 can show no estimate converges: the two sides agree
    # within the tolerance, and the check still fails
    report = verify_homomorphism((2,), (2,), 1e-17)
    assert report.delta < report.tolerance < float("inf")
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


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15])
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
    # the bound holds half an ulp of the value for its rounding to float64,
    # so a tolerance of one ulp never converges, and it stops at once
    for comp in _closed_forms():
        tol = math.ulp(zeta(comp, 1e-6).value)
        est = zeta(comp, tol, max_n=1 << 13)
        assert not est.converged
        assert est.cutoff < 1 << 13
        assert est.est_error >= tol / 2


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
    # members of different weights and reductions, sharing suffixes, are
    # summed to different cutoffs
    comps = [(2, 1, 1, 1), (2,), (3,), (4, -1), (3, 1), (2, 1), (2, 1, 1), (3, 1, 1),
             (5, 1, 1, 1), (4, 1, 1, 1), (3, 1, 1, 1), (6, -2, 1), (5, 0, -1), (20, -17), (30, -27)]
    batch = _evaluate(comps, 1e-10, 1 << 24)
    solo = {comp: _evaluate([comp], 1e-10, 1 << 24)[comp] for comp in comps}
    assert batch == solo
    assert len({est.cutoff for est in solo.values()}) > 1
    assert all(est.converged and est.cutoff < 100 for est in solo.values())


def test_batch_rejects_a_divergent_term_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept before checking convergence")

    monkeypatch.setattr(ZETA_MODULE, "_advance", no_sweep)
    monkeypatch.setattr(ZETA_MODULE, "enclose", no_sweep)
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
    assert est.converged and est == zeta((2,), 1e-6)


def test_a_numpy_integer_cap_or_cutoff_still_computes():
    assert zeta((2,), 1e-6, max_n=np.int64(4096)) == zeta((2,), 1e-6, max_n=4096)
    assert zeta_truncated((2,), np.int64(100)) == zeta_truncated((2,), 100)


def test_deep_compositions_converge_at_a_loose_tolerance():
    for comp in [(2,) + (1,) * 7, (2,) + (1,) * 6]:
        est = zeta(comp, 1e3)
        assert est.converged and est.est_error < 500


def test_a_fresh_zeta_process_loads_neither_numpy_nor_openssl():
    code = (
        "import sys\n"
        "import extshuffle\n"
        "extshuffle.zeta((4, -1), 1e-6)\n"
        "assert extshuffle.verify_homomorphism((2,), (3,), 1e-6).passed\n"
        "print('numpy' in sys.modules, '_hashlib' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


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

"""The error bars of ``zeta`` against the true values: a 200-bit reference
(``reference_mzv``, the Hölder convolution in fixed point) for every
admissible composition of weight at most 9."""

from fractions import Fraction

import pytest

from extshuffle import zeta
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

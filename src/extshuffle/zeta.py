"""Numeric evaluation of convergent nested zeta series.

``zeta_truncated`` computes the partial sum over ``n1 <= N`` of

    sum over n1 > n2 > ... > nk > 0 of  n1**-s1 * ... * nk**-sk

with a cumulative dynamic program: writing ``B_0(m) = 1`` and

    B_j(m) = sum_{n <= m} n**-s(k-j+1) * B_{j-1}(n - 1),

the truncated sum is ``B_k(N)``.  One left-to-right sweep updates all levels
simultaneously, so the cost is O(depth * N) instead of O(N**depth).  The
sweep runs in blocks of vectorized arithmetic, accumulated in extended
precision to keep roundoff far below the requested tolerances even at
cutoffs around 10**7.

Error control is empirical: ``zeta`` doubles the cutoff until successive
estimates differ by less than half the tolerance.  Negative entries make
analytic tail majorants awkward, so the ``converged`` flag makes the
empiricism explicit; slowly converging points are expected to report
``converged=False`` at tight tolerances once the cutoff cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import Composition, LinComb, composition, depth
from .convergence import is_convergent
from .shuffle import ext_shuffle

DEFAULT_MAX_N = 1 << 24
_START_N = 1 << 10
_BLOCK = 1 << 19
_ACC = np.longdouble  # extended-precision accumulation for the running sums


@dataclass(frozen=True)
class ZetaEstimate:
    """A truncated-series value with its empirical error metadata."""

    value: float
    cutoff: int
    est_error: float
    converged: bool


def _require_convergent(comp):
    if not is_convergent(comp):
        raise ValueError(f"composition {comp} is not convergent")


def _int_power(base, p):
    """``base ** p`` for integer ``p`` by squaring; base is a float64 array."""
    if p == 0:
        return np.ones_like(base)
    n = -p if p < 0 else p
    result = None
    square = base
    while n:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if n:
            square = square * square
    return 1.0 / result if p < 0 else result


def _partial_sums(comp, checkpoints):
    """Yield ``(N, partial sum at N)`` for each checkpoint, in one sweep.

    Term values are formed in float64 (per-term relative error does not
    accumulate); only the running prefix sums are carried in extended
    precision, which keeps the sequential accumulation error negligible.
    """
    k = len(comp)
    powers = [-e for e in reversed(comp)]  # innermost exponent applied first
    carry = np.zeros(k + 1, dtype=_ACC)
    carry[0] = 1
    pos = 0
    for target in checkpoints:
        while pos < target:
            hi = min(pos + _BLOCK, target)
            n = hi - pos
            ms = np.arange(pos + 1, hi + 1, dtype=np.float64)
            prev_arr = np.ones(n, dtype=np.float64)
            new_carry = carry.copy()
            for j in range(1, k + 1):
                shifted = np.empty(n, dtype=np.float64)
                shifted[0] = float(carry[j - 1])
                shifted[1:] = prev_arr[:-1]
                cur_arr = carry[j] + np.cumsum(_int_power(ms, powers[j - 1]) * shifted, dtype=_ACC)
                new_carry[j] = cur_arr[-1]
                prev_arr = cur_arr.astype(np.float64)
            carry = new_carry
            pos = hi
        yield target, float(carry[k])


def zeta_truncated(comp: Composition, cutoff: int) -> float:
    """Partial sum of the nested series over ``n1 <= cutoff``."""
    comp = composition(comp)
    _require_convergent(comp)
    if cutoff < depth(comp):
        raise ValueError(f"cutoff {cutoff} is below the depth {depth(comp)}")
    if not comp:
        return 1.0
    for _, value in _partial_sums(comp, [cutoff]):
        return value


def zeta(comp: Composition, tol: float, *, max_n: int = DEFAULT_MAX_N) -> ZetaEstimate:
    """Estimate the series by doubling the cutoff until stable within ``tol``.

    Stops once successive estimates differ by less than ``tol / 2`` or the
    cutoff cap is exceeded; the cap case is reported as ``converged=False``,
    not an exception.  ``tol`` must be positive and finite, and ``max_n``
    must exceed the first cutoff ``2**10``, so that there are at least two
    estimates to compare; otherwise ``ValueError``.
    """
    comp = composition(comp)
    _require_convergent(comp)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_n <= _START_N:
        raise ValueError(
            f"max_n must exceed {_START_N}, the first cutoff, so that two estimates "
            f"can be compared; got {max_n}"
        )
    if not comp:
        return ZetaEstimate(1.0, 0, 0.0, True)

    checkpoints = [_START_N]
    while checkpoints[-1] < max_n:
        checkpoints.append(min(2 * checkpoints[-1], max_n))

    previous = None
    diff = float("inf")
    value = 0.0
    cutoff = checkpoints[0]
    for cutoff, value in _partial_sums(comp, checkpoints):
        if previous is not None:
            diff = abs(value - previous)
            if diff < tol / 2:
                return ZetaEstimate(value, cutoff, diff, True)
        previous = value
    return ZetaEstimate(value, cutoff, diff, False)


@lru_cache(maxsize=4096)
def _zeta_cached(comp, tol, max_n):
    return zeta(comp, tol, max_n=max_n)


def zeta_of_lincomb(x: LinComb, tol: float, *, max_n: int = DEFAULT_MAX_N) -> ZetaEstimate:
    """Coefficient-weighted sum of per-term estimates.

    The reported error is the absolute-coefficient-weighted sum of per-term
    errors; every term must be convergent.
    """
    if not x:
        return ZetaEstimate(0.0, 0, 0.0, True)
    total = 0.0
    err = 0.0
    cutoff = 0
    converged = True
    for comp, coef in x.terms():
        est = _zeta_cached(comp, tol, max_n)
        c = float(coef)
        total += c * est.value
        err += abs(c) * est.est_error
        cutoff = max(cutoff, est.cutoff)
        converged = converged and est.converged
    return ZetaEstimate(total, cutoff, err, converged)


@dataclass(frozen=True)
class HomomorphismReport:
    """Outcome of checking ``zeta(a x b) == zeta(a) * zeta(b)`` numerically."""

    a: Composition
    b: Composition
    expansion: LinComb
    lhs: ZetaEstimate
    rhs_value: float
    rhs_error: float
    delta: float
    tolerance: float
    passed: bool


def verify_homomorphism(
    a: Composition, b: Composition, tol: float, *, max_n: int = DEFAULT_MAX_N
) -> HomomorphismReport:
    """Compare the series of the product expansion against the product of series.

    Passes when the two sides agree within ``tol`` plus the accumulated
    empirical error estimates of both sides.
    """
    a = composition(a)
    b = composition(b)
    _require_convergent(a)
    _require_convergent(b)
    expansion = ext_shuffle(a, b)
    lhs = zeta_of_lincomb(expansion, tol, max_n=max_n)
    za = _zeta_cached(a, tol, max_n)
    zb = _zeta_cached(b, tol, max_n)
    rhs_value = za.value * zb.value
    rhs_error = (
        abs(za.value) * zb.est_error
        + abs(zb.value) * za.est_error
        + za.est_error * zb.est_error
    )
    delta = abs(lhs.value - rhs_value)
    tolerance = tol + lhs.est_error + rhs_error
    return HomomorphismReport(
        a=a,
        b=b,
        expansion=expansion,
        lhs=lhs,
        rhs_value=rhs_value,
        rhs_error=rhs_error,
        delta=delta,
        tolerance=tolerance,
        passed=delta < tolerance,
    )

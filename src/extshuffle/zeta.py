"""Numeric evaluation of convergent nested zeta series.

``zeta_truncated`` computes the partial sum over ``n1 <= N`` of

    sum over n1 > n2 > ... > nk > 0 of  n1**-s1 * ... * nk**-sk

with a cumulative dynamic program: writing ``B_0(m) = 1`` and

    B_j(m) = sum_{n <= m} n**-s(k-j+1) * B_{j-1}(n - 1),

the truncated sum is ``B_k(N)``.  One left-to-right sweep updates all levels
simultaneously, so the cost is O(depth * N) instead of O(N**depth).  The
sweep runs in blocks of vectorized arithmetic, accumulated in extended
precision where the platform has it.

``zeta`` extrapolates instead of summing to a distant cutoff.  A convergent
series with integer entries has the truncation expansion

    S(N) ~ zeta + sum over i >= 1, 0 <= j < depth of c_ij (log N)**j / N**i

(Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 2001; Crandall, Math.
Comp. 1998).  One sweep to ``N = 2**10`` reads ``S`` on a geometric grid of
about 8 points per octave from 64 to ``N``, straight out of the block's
cumulative array, and fits the expansion by least squares, truncated after
order ``p`` (the powers ``1/N**i`` with ``i <= p``).  The constant term of a
fit is one dot product with a row that depends only on the grid, the depth
and the order; those rows are computed once, in 40-digit decimal arithmetic
because the design matrices are ill-conditioned, and cached.

The error estimate compares four fits: orders ``p`` and ``p - 1``, each on
the full grid and on the grid without its lowest quarter.  ``value`` is the
order-``p`` fit on the full grid.  ``est_error`` is twice its largest
disagreement with the other three, plus a rounding floor
``||row||_1 * eps * max|S|`` for the largest row of the four.  The
disagreement with order ``p - 1`` is about the error of order ``p - 1``, so
twice it covers the error of order ``p`` whenever that order is at least a
third more accurate; a single disagreement fell up to 17% short on deep
compositions whose expansion is barely resolved.  Every order ``p >= 2``
whose ``1 + p * depth`` unknowns are at most half the grid points (and
``p <= 8``) is tried, and the one with the smallest ``est_error`` is kept.

The estimate is ``converged`` once ``est_error < tol / 2``.  Otherwise the
cutoff doubles, clamped to ``max_n``, the sweep continues where it stopped,
and the grid extends to the new cutoff; ``cutoff`` is the last ``N``
summed, and ``max_n`` is only a fallback cap.  The error estimate is
empirical, not a proven bound.  A tolerance below the rounding floor can
never converge, and a series whose expansion is not resolved by ``max_n``
reports ``converged=False`` at the cap rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

from .algebra import Composition, LinComb, composition, depth
from .convergence import is_convergent
from .shuffle import ext_shuffle

DEFAULT_MAX_N = 1 << 24
_START_N = 1 << 10
_BLOCK = 1 << 19
_GRID_START = 64
_GRID_PER_OCTAVE = 8
_MAX_ORDER = 8
_EPS = 2.0**-52  # float64 machine epsilon; the grid sums are read as float64


@dataclass(frozen=True)
class ZetaEstimate:
    """A series value with its empirical error metadata."""

    value: float
    cutoff: int
    est_error: float
    converged: bool


def _require_convergent(comp):
    if not is_convergent(comp):
        raise ValueError(f"composition {comp} is not convergent")


def _int_power(base, p):
    """``base ** p`` as a new array, for integer ``p``, by squaring; base is a
    float64 array."""
    if p == 0:
        return base**0
    n = -p if p < 0 else p
    result = None
    square = base
    while n:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if n:
            square = square * square
    if p < 0:
        return 1.0 / result
    return result.copy() if result is base else result


def _sweep(comp, cutoffs):
    """Yield ``(first, sums)`` block by block, in one sweep up to the last cutoff.

    ``sums[i]`` is the partial sum at ``n = first + i``.  Blocks end at each
    cutoff and are at most ``_BLOCK`` long.  Term values are formed in
    float64 (per-term relative error does not accumulate); only the running
    prefix sums are carried in extended precision, which keeps the
    sequential accumulation error negligible where ``np.longdouble`` is wider
    than float64.
    """
    import numpy as np

    powers = [-e for e in reversed(comp)]  # innermost exponent applied first
    carry = np.zeros(len(comp) + 1, dtype=np.longdouble)  # B_j at the block start
    pos = 0
    for target in cutoffs:
        while pos < target:
            hi = min(pos + _BLOCK, target)
            ms = np.arange(pos + 1, hi + 1, dtype=np.float64)
            level = None  # B_0 = 1 leaves the first level's terms as they are
            for j, power in enumerate(powers, start=1):
                terms = _int_power(ms, power)
                if level is not None:  # times B_{j-1}(n - 1)
                    terms[1:] *= level[:-1]
                    terms[0] *= below
                below = float(carry[j])
                sums = np.cumsum(terms, dtype=np.longdouble)
                sums += carry[j]
                carry[j] = sums[-1]
                level = sums.astype(np.float64)
            yield pos + 1, level
            pos = hi


def zeta_truncated(comp: Composition, cutoff: int) -> float:
    """Partial sum of the nested series over ``n1 <= cutoff``."""
    comp = composition(comp)
    _require_convergent(comp)
    if cutoff < depth(comp):
        raise ValueError(f"cutoff {cutoff} is below the depth {depth(comp)}")
    if not comp:
        return 1.0
    for _, sums in _sweep(comp, [cutoff]):
        last = sums[-1]
    return float(last)


@lru_cache(maxsize=None)
def _grid(cutoff):
    """The fitting grid for ``cutoff``, a read-only integer array: about
    ``_GRID_PER_OCTAVE`` points per octave from ``_GRID_START`` up to and
    including ``cutoff``."""
    import numpy as np

    steps = math.floor(_GRID_PER_OCTAVE * math.log2(cutoff / _GRID_START))
    points = {round(_GRID_START * 2 ** (i / _GRID_PER_OCTAVE)) for i in range(steps + 1)}
    grid = np.array(sorted(p for p in points | {cutoff} if p <= cutoff))
    grid.flags.writeable = False
    return grid


def _constant_rows(columns):
    """Rows ``r_m`` such that ``r_m @ y`` is the constant term of the least-squares
    fit of ``y`` on the first ``m`` columns, for every ``m``.

    ``columns[0]`` is the constant column.  Modified Gram-Schmidt in 40-digit
    decimals: with ``A = QR``, the constant term is ``(R^-1 Q^T y)[0]``, and
    since ``R`` is triangular the rows for successive prefixes of the columns
    are prefix sums of ``(R^-1)[0, c] * q_c``.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        basis, weights, rows = [], [], []
        row = [Decimal(0)] * len(columns[0])
        for col in columns:
            v = [Decimal(x) for x in col]
            proj = []
            for q in basis:
                d = sum(a * b for a, b in zip(q, v))
                proj.append(d)
                v = [a - d * b for a, b in zip(v, q)]
            norm = sum(a * a for a in v).sqrt()
            q = [a / norm for a in v]
            weight = ((0 if basis else 1) - sum(w * d for w, d in zip(weights, proj))) / norm
            basis.append(q)
            weights.append(weight)
            row = [a + weight * b for a, b in zip(row, q)]
            rows.append([float(a) for a in row])
        return rows


@lru_cache(maxsize=None)
def _fit_rows(cutoff, k):
    """Constant-term rows of the truncation-expansion fits for depth ``k`` at
    ``cutoff``: ``(start, rows, norms)`` for the full grid and for the grid
    without its lowest quarter.  ``rows[p - 1]`` is the order-``p`` row over
    ``grid[start:]`` and ``norms`` their 1-norms.  Orders run up to the
    largest whose ``1 + p * k`` unknowns are at most half the grid points,
    capped at ``_MAX_ORDER``; there may be none."""
    import numpy as np

    grid = _grid(cutoff).astype(np.float64)
    orders = min(_MAX_ORDER, (len(grid) // 2 - 1) // k)
    fits = []
    for start in (0, len(grid) // 4):
        n = grid[start:]
        t = n[0] / n
        u = np.log(n / n[0]) / np.log(n[-1] / n[0])
        columns = [np.ones_like(n)]
        for i in range(1, orders + 1):
            columns += [t**i * u**j for j in range(k)]
        rows = np.array(_constant_rows(columns)[k::k]) if orders else np.empty((0, len(n)))
        rows.flags.writeable = False  # shared by every caller through the cache
        fits.append((start, rows, np.abs(rows).sum(axis=1)))
    return tuple(fits)


def _extrapolate(sums, cutoff, k):
    """``(value, est_error)`` from the partial sums on ``_grid(cutoff)``."""
    import numpy as np

    (_, full_rows, full_norms), (start, short_rows, short_norms) = _fit_rows(cutoff, k)
    full = full_rows @ sums
    short = short_rows @ sums[start:]
    floor = np.maximum(full_norms, short_norms) * _EPS * np.abs(sums).max()
    best = (float(sums[-1]), math.inf)
    for p in range(1, len(full)):  # orders p + 1 against p
        value = full[p]
        spread = max(abs(full[p - 1] - value), abs(short[p] - value), abs(short[p - 1] - value))
        est = float(2 * spread + max(floor[p], floor[p - 1]))
        if est < best[1]:
            best = (float(value), est)
    return best


def zeta(comp: Composition, tol: float, *, max_n: int = DEFAULT_MAX_N) -> ZetaEstimate:
    """Estimate the series by extrapolating its partial sums to ``N = infinity``.

    Fits the truncation expansion to a sweep up to ``2**10`` and doubles the
    cutoff, up to ``max_n``, until the fits agree within ``tol / 2`` (see the
    module docstring).  An estimate that does not get there by ``max_n`` is
    reported as ``converged=False``, not an exception.  ``tol`` must be
    positive and finite, and ``max_n`` must exceed the first cutoff ``2**10``;
    otherwise ``ValueError``.
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

    import numpy as np

    cutoffs = [_START_N]
    while cutoffs[-1] < max_n:
        cutoffs.append(min(2 * cutoffs[-1], max_n))
    grid = _grid(max_n)
    at_grid = np.empty(len(grid))
    for first, sums in _sweep(comp, cutoffs):
        last = first + len(sums) - 1
        lo, hi = np.searchsorted(grid, [first, last + 1])
        at_grid[lo:hi] = sums[grid[lo:hi] - first]
        if last in cutoffs:
            value, est_error = _extrapolate(at_grid[:hi], last, len(comp))
            if est_error < tol / 2:
                return ZetaEstimate(value, last, est_error, True)
    return ZetaEstimate(value, last, est_error, False)


@lru_cache(maxsize=None)
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

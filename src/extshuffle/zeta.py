"""Numeric evaluation of convergent nested zeta series.

``zeta_truncated`` computes the partial sum over ``n1 <= N`` of

    sum over n1 > n2 > ... > nk > 0 of  n1**-s1 * ... * nk**-sk

with a cumulative dynamic program: writing ``B_0(m) = 1`` and

    B_j(m) = sum_{n <= m} n**-s(k-j+1) * B_{j-1}(n - 1),

the truncated sum is ``B_k(N)``.  Level ``j`` depends on the composition only
through its innermost suffix ``(s(k-j+1), ..., sk)``, so compositions that
share a suffix share that level, and a batch costs O(distinct suffixes * N)
instead of O(N**depth).

``zeta``, ``zeta_of_lincomb`` and ``verify_homomorphism`` all go through
``_combine``, which sends the terms missing from ``_MEMO`` to ``_evaluate``
in one batch.  ``_evaluate`` sweeps the batch to the first cutoff
``_START_N`` with ``_advance``, extrapolates each composition's partial sums
on ``_grid(cutoff)`` with ``_extrapolate``, and, for those whose
``est_error`` is not yet below ``tol / 2``, doubles the cutoff up to
``max_n`` and sweeps on from their carries.  ``_advance`` cuts ``n`` into
stretches, plans the batch's chunks and their tries once per stretch width
(``_plan``, ``_trie``), and sweeps each chunk level by level
(``_sweep_trie``) in this thread's workspace (``_workspace``).

Terms are formed in float64 and each row is summed in runs of ``_RUN``
values in float64; only the run totals' prefix sums and the carries between
stretches are ``np.longdouble``, extended precision where the platform has
it.  Blocked summation like this keeps the error near
``(_RUN + N / _RUN) * eps`` instead of ``N * eps`` (Higham, SIAM J. Sci.
Comput. 1993).

Every row is computed by the same operations whatever else is in its batch,
and each fit uses only elementwise products and a sum along one row, so a
composition's result is bitwise the same alone or in any batch, and one
memo of estimates serves every caller.

Memory stays bounded whatever the batch size: a stretch spans at most
``_PIECE`` values of ``n``, and a chunk's block at most ``_BLOCK_BYTES`` of
float64 rows (a composition's own suffixes are never split, so one deep
enough composition may exceed it).  A thread's workspace lives as long as
the thread and is sized to the largest stretch it has swept: typically
about 2 MiB at the first cutoff and 4.5 MiB past it.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import namedtuple
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import accumulate
from numbers import Integral, Real
from operator import mul

from .algebra import Composition, LinComb, _clip, _Record, composition, depth, format_composition as _fmt
from .convergence import require_convergent
from .shuffle import ext_shuffle

DEFAULT_MAX_N = 1 << 24
_START_N = 1 << 10
_PIECE = 1 << 16  # longest stretch of n swept at once
# float64 trie rows of one chunk over one stretch: at the first cutoff's width
# of 1,024, 256 rows, so a certifier batch of up to a few hundred trie rows is
# one or two chunk passes; at 64 rows a chunk the fixed cost of each pass and
# level outweighed the arithmetic
_BLOCK_BYTES = 1 << 21
_RUN = 256  # values summed in float64 before a run total joins the long-double prefix
_GRID_START = 64
_GRID_PER_OCTAVE = 8
_MAX_ORDER = 8
_EPS = 2.0**-52  # float64 machine epsilon; the grid sums are read as float64
_MAX_CUTOFF = 1 << 53  # the sweep holds n as float64, which is exact up to here
_LOCAL = threading.local()  # each thread's sweep workspace, see _workspace


class ZetaEstimate(_Record, namedtuple("ZetaEstimate", "value cutoff est_error converged")):
    """A series value with its empirical error metadata."""

    __slots__ = ()


def _plan(comps, budget, power_row):
    """The chunks of ``comps``, sorted by reversed entries, and their tries,
    for blocks of ``budget`` rows: a list of ``(start, stop, rows, trie)``,
    made once per stretch width and swept once per stretch.

    In that order the longest suffix a composition shares with any earlier
    one is the suffix it shares with its predecessor, so each composition
    adds a node for every longer suffix of its own (all of them at the start
    of a chunk).  A chunk takes compositions while its nodes number at most
    ``budget``; one with more suffixes than that is a chunk of its own.
    ``_trie`` lays out each chunk's ``rows`` and ``trie``.
    """
    shared, spans, start, size, prev = [], [], 0, 0, ()
    for i, comp in enumerate(comps):
        k = 0  # the length of the suffix shared with the predecessor
        for a, b in zip(reversed(comp), reversed(prev)):
            if a != b:
                break
            k += 1
        size += len(comp) - k
        if i > start and size > budget:
            spans.append((start, i))
            start, size, k = i, len(comp), 0
        shared.append(k)
        prev = comp
    spans.append((start, len(comps)))
    return [(start, stop, *_trie(comps[start:stop], shared[start:stop], power_row))
            for start, stop in spans]


def _trie(chunk, shared, power_row):
    """``(rows, trie)`` of ``chunk``, whose ``c``-th composition shares a
    suffix of length ``shared[c]`` with earlier ones.  The trie is
    ``(suffixes, which, parent, bounds)``: its nodes level by level, each
    level in the order of its compositions; node ``i``'s terms are the table
    row ``which[i]``, ``n**-suffixes[i][0]``, times the sums of node
    ``parent[i]`` above the first level; and the end of each level.  One
    dictionary by suffix numbers the nodes; ``rows[c]`` is ``chunk[c]``'s.
    ``rows``, ``which`` and ``parent`` are index arrays."""
    import numpy as np

    levels = [[] for _ in range(max(map(len, chunk)))]
    for comp, k in zip(chunk, shared):
        for j in range(k + 1, len(comp) + 1):
            levels[j - 1].append(comp[-j:])
    suffixes = [s for level in levels for s in level]
    node = {s: i for i, s in enumerate(suffixes)}
    which = np.array([power_row[-s[0]] for s in suffixes])
    parent = np.array([node.get(s[1:], 0) for s in suffixes])  # 0 on the first level, which has none
    bounds = list(accumulate(map(len, levels)))
    return np.array([node[comp] for comp in chunk]), (suffixes, which, parent, bounds)


def _workspace(first, width, powers, block):
    """This thread's workspace for the stretch of ``width`` values of ``n``
    from ``first``: views ``(ms, table, sums, shifted)`` of one float64
    buffer.  A row holds offset ``c`` at ``[c % h, c // h]`` of ``(h, 2)``,
    ``h = width // 2``: run ``q`` and run ``q + runs / 2`` share its
    complex128 view.  ``ms`` holds the values of ``n`` (a cached step vector
    of length ``h`` plus ``first`` and ``first + h``), ``table`` has
    ``powers`` rows of ``width``, ``sums`` is ``(block, h, 2)``, and
    ``shifted`` holds lists of row views that line each offset up with the
    one before it: of ``table`` and of ``sums`` without their first pair,
    and of ``sums`` without its last pair.  A buffer too small is replaced:
    at the first cutoff's width by one of the size asked for, and past it by
    one with room for a block of ``_BLOCK_BYTES`` and as many power rows, so
    that a thread's deeper sweeps reuse it instead of replacing it at each
    depth, each new buffer faulted in by the kernel page by page.  It is
    never shrunk; numpy releases the GIL inside ufuncs, so
    threads must not share it.  The lists are cut from row views of the
    buffer kept for each width, as many rows as asked for at that width so
    far; they are dropped before the buffer grows, so a replaced buffer is
    never kept alive.
    """
    import numpy as np

    rows, half = 1 + powers + block, width // 2
    size = rows * width
    if len(getattr(_LOCAL, "buf", ())) < size:
        _LOCAL.views = {}
        _LOCAL.buf = ()  # the old buffer is freed before the new one exists
        # past the first cutoff, room for a full block and as large a power table
        reserve = (1 + 2 * (_BLOCK_BYTES // (8 * width))) * width if width > _START_N else 0
        _LOCAL.buf = np.empty(max(size, reserve))
    if len(getattr(_LOCAL, "steps", ())) < half:
        _LOCAL.steps = np.arange(half, dtype=np.float64)
    whole = _LOCAL.buf[:size].reshape(rows, width)
    views = _LOCAL.views.get(width)
    if views is None or len(views[0]) < rows:
        views = _LOCAL.views[width] = list(whole[:, 2:]), list(whole[:, :-2])
    after, before = views
    for col, start in enumerate((first, first + half)):
        np.add(_LOCAL.steps[:half], start, out=whole[0, col::2])
    shifted = after[1 : 1 + powers], after[1 + powers : rows], before[1 + powers : rows]
    return whole[0], whole[1 : 1 + powers], whole[1 + powers :].reshape(block, half, 2), shifted


def _sweep_trie(trie, table, carries, sums, shifted):
    """Sweep ``trie``, a chunk's ``(suffixes, which, parent, bounds)`` from
    ``_trie``, over a stretch of ``n``.

    Row ``which[i]`` of ``table`` holds node ``i``'s power of ``n`` over the
    stretch, and ``carries`` maps a suffix to its level's sum just below the
    stretch (absent means zero, as at ``n = 1``).  Node ``i`` gets row ``i``
    of ``sums``, where its float64 partial sums over the stretch go; a
    parent's row comes before its children's.  Rows and ``shifted`` are
    ``_workspace``'s.  Returns ``ends``, each row's last sum in extended
    precision.  The stretch is a whole number of pairs of runs of ``_RUN``
    values.  Terms and each run's running sums are float64: a complex add is
    two float64 adds, so one accumulate on a row's complex128 view sums two
    runs by the operations of summing each alone.  Only the prefix sums of
    the run totals and the carries are ``np.longdouble``, and each run gets
    its preceding total back as float64.  Every operation acts along one row.

    Nothing the size of a row is allocated: a first-level row is summed
    straight from its table row, and a row above it is formed in place from
    the shifted views, its terms at offsets ``0`` and ``h`` coming from one
    product per chunk and one per level.  Beyond the products of its rows a
    level takes a fixed handful of numpy calls: ``which`` and ``parent``
    index without conversion, and one long-double array per chunk holds
    each row's carry, then its run totals' prefix sums, from which the
    level's runs get their float64 corrections and the chunk its ``ends``.
    """
    import numpy as np

    suffixes, which, parent, bounds = trie
    nodes, top = len(suffixes), bounds[0]
    terms, after, before = shifted
    pairs = sums.shape[1] // _RUN
    # per row: its carry (-0.0 at n = 1, which leaves every sum as it is), then
    # the prefix sums of its run totals, each with the carry added
    totals = np.empty((nodes, 2 * pairs + 1), np.longdouble)
    if carries:
        totals[:, 0] = [carries.get(s, 0) for s in suffixes]
        below = totals[:, 0].astype(np.float64)  # B(n - 1) at the first n, in float64
    else:
        totals[:, 0] = -0.0
        below = np.zeros(nodes)
    edges = table[which, :2]  # each node's terms at offsets 0 and h
    sums[top:nodes, 0, 0] = edges[top:, 0] * below[parent[top:]]
    runs = sums.view(np.complex128).reshape(len(sums), pairs, _RUN)
    ws, ps = which.tolist(), parent.tolist()
    lo = 0
    for hi in bounds:
        level, t = runs[lo:hi], totals[lo:hi]
        if lo:  # above the first level (B_0 = 1): terms times B_{j-1}(n - 1)
            for w, p, row in zip(ws[lo:hi], ps[lo:hi], after[lo:hi]):
                np.multiply(terms[w], before[p], row)
            sums[lo:hi, 0, 1] = edges[lo:hi, 1] * sums[parent[lo:hi], -1, 0]
            np.add.accumulate(level, axis=2, out=level)
        else:
            for w, row in zip(ws[:hi], level):
                np.add.accumulate(table[w].view(np.complex128).reshape(pairs, _RUN), axis=1, out=row)
        last = level[:, :, -1]  # each run's sum: run q in the real parts, run q + pairs in the imaginary
        np.concatenate((last.real, last.imag), axis=1, out=t[:, 1:])
        np.add.accumulate(t[:, 1:], axis=1, out=t[:, 1:])
        if carries:
            t[:, 1:] += t[:, :1]
        fix = np.empty((hi - lo, pairs), np.complex128)  # what each run gets
        fix.real, fix.imag = t[:, :pairs], t[:, pairs:-1]
        level += fix[:, :, None]
        lo = hi
    return totals[:, -1]


def _advance(comps, pos, target, carries, grid, out):
    """Sweep ``comps``, sorted by reversed entries, from ``n = pos`` to ``target``.

    ``carries`` maps each suffix of theirs to its level's sum at ``pos``
    (empty at ``pos = 0``).  The partial sums of ``comps[i]`` at the points of
    ``grid`` in ``(pos, target]`` go to the same columns of ``out[i]``.
    Returns the carries at ``target``.  Stretches of ``n`` end at ``target``
    and at every ``_PIECE``-th value after ``pos``, whatever the batch.  The
    chunks and tries of a stretch depend only on its width, so each width's
    ``_plan`` is built once per call, and each chunk is swept once per
    stretch, its grid points read from its compositions' rows alone.  Each
    stretch works in this thread's workspace (see ``_workspace``), so a
    sweep allocates nothing the size of a stretch once the workspace has
    grown; zero terms pad it to whole run pairs.  ``ValueError`` names any
    composition whose sums in ``out`` are not finite.
    """
    import numpy as np

    powers = sorted({-e for comp in comps for e in comp})
    power_row = {power: i for i, power in enumerate(powers)}
    longest, entries = max(map(len, comps)), sum(map(len, comps))
    plans = {}
    # n**p may overflow and inf * 0 give nan; such sums are rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(pos + 1, target + 1, _PIECE):
            count = min(_PIECE, target + 1 - first)
            lo, hi = np.searchsorted(grid, [first, first + count])
            cols = grid[lo:hi] - first
            width = -(-count // (2 * _RUN)) * 2 * _RUN  # zero terms pad whole run pairs
            budget = max(1, _BLOCK_BYTES // (8 * width))
            if budget not in plans:
                plans[budget] = _plan(comps, budget, power_row)
            # one block serves every chunk: a chunk has at most budget rows, or
            # one composition's, and never more than the batch's entries
            block = min(max(budget, longest), entries)
            ms, table, sums, shifted = _workspace(first, width, len(powers), block)
            for power, row in zip(powers, table):
                np.power(ms, power, out=row)
            pad, half = table.reshape(len(powers), -1, 2), width // 2
            pad[:, count:, 0] = pad[:, max(0, count - half) :, 1] = 0
            swept = {}
            for start, stop, rows, trie in plans[budget]:
                swept.update(zip(trie[0], _sweep_trie(trie, table, carries, sums, shifted)))
                out[start:stop, lo:hi] = sums[rows[:, None], cols % half, cols // half]
            carries = swept
    if not np.isfinite(out).all():
        bad = [comp for comp, ok in zip(comps, np.isfinite(out).all(axis=1)) if not ok]
        more = f" (and {len(bad) - 1} more compositions)" if len(bad) > 1 else ""
        raise ValueError(f"partial sums of {_clip(_fmt(bad[0]))}{more} overflow float64 by n = {target}")
    return carries


def zeta_truncated(comp: Composition, cutoff: int) -> float:
    """Partial sum of the nested series over ``n1 <= cutoff``.

    ``cutoff`` is an integer (not a bool) from the depth up to ``2**53``.
    """
    comp = composition(comp)
    _check_cap("cutoff", cutoff)
    if cutoff < depth(comp):
        raise ValueError(f"cutoff {cutoff} is below the depth {depth(comp)}")
    require_convergent(comp)
    if not comp:
        return 1.0

    import numpy as np

    out = np.empty((1, 1))
    _advance([comp], 0, cutoff, {}, np.array([cutoff]), out)
    return float(out[0, 0])


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


def _constant_rows(columns, sizes):
    """Rows ``r_m``, one for each ``m`` in ``sizes``, such that ``r_m @ y`` is
    the constant term of the least-squares fit of ``y`` on ``columns[:m]``.

    ``columns[0]`` is the constant column.  The row is ``A_m x`` with
    ``G_m x = e_0``, where ``A_m`` holds the first ``m`` columns and ``G_m`` is
    the leading block of the Gram matrix ``G = A^T A``.  The float64 columns
    are scaled exactly to integers at one power of two, so ``G`` is exact.
    ``G = L L^T`` is factored in 80-digit decimals, and ``L``'s leading block
    factors ``G_m``, so one forward substitution ``L z = e_0`` serves every
    ``m``, then one back substitution ``L_m^T x = z[:m]`` per ``m``.  Each row
    is summed exactly in integers, with ``x`` as exact decimals in fixed point,
    and rounded to float64 once.  These are the normal equations (Bjorck,
    Numerical Methods for Least Squares Problems, SIAM 1996), solved this way
    because the design matrices are too ill-conditioned for float64.
    """
    import numpy as np

    scale = 1 << (53 - int(np.frexp(np.array(columns))[1].min()))  # makes every value an integer
    # scaled exactly as fractions: a subnormal entry's scale would overflow float64
    a = [[n * scale // d for n, d in map(float.as_integer_ratio, col.tolist())] for col in columns]
    with localcontext() as ctx:
        ctx.prec = 80
        chol, z = [], []
        for i, col in enumerate(a):
            row = []
            for j in range(i):
                row.append((sum(map(mul, col, a[j])) - sum(map(mul, row, chol[j]))) / chol[j][j])
            row.append((Decimal(sum(map(mul, col, col))) - sum(map(mul, row, row))).sqrt())
            chol.append(row)
            z.append(((0 if i else 1) - sum(map(mul, row, z))) / row[i])
        below = [[chol[k][i] for k in range(i + 1, len(a))] for i in range(len(a))]
        by_point = list(zip(*a))
        rows = []
        for m in sizes:
            x = [Decimal(0)] * m
            for i in reversed(range(m)):
                x[i] = (z[i] - sum(map(mul, below[i], x[i + 1 : m]))) / chol[i][i]
            # x[i] has at most 80 digits, so x[i] * 10**shift is an integer
            shift = max(0, ctx.prec - 1 - min(v.adjusted() for v in x))
            fixed = [int(v.scaleb(shift)) for v in x]
            den = 10**shift
            rows.append([sum(map(mul, point, fixed)) * scale / den for point in by_point])
        return rows


@lru_cache(maxsize=None)
def _fit_rows(cutoff, k):
    """Constant-term rows of the truncation-expansion fits for depth ``k`` at
    ``cutoff``: ``(start, rows, norms)`` for the full grid and for the grid
    without its lowest quarter.  ``rows[p - 1]`` is the order-``p`` row over
    ``grid[start:]`` and ``norms`` their 1-norms.  Orders run up to the
    largest whose ``1 + p * k`` unknowns are at most half the grid points,
    capped at ``_MAX_ORDER``; there may be none.  Each entry is the exact
    row, to 80-digit accuracy, rounded once: ``_constant_rows`` solves for
    it, or at the first cutoff ``_rowfile.rows`` reads the solver's bits
    from the package."""
    import numpy as np

    from ._rowfile import rows as stored

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
        sizes = range(1 + k, len(columns) + 1, k)
        rows = stored(columns, sizes, _constant_rows) if orders else np.empty((0, len(n)))
        fits.append((start, rows, np.abs(rows).sum(axis=1)))
    return tuple(fits)


def _extrapolate(sums, cutoff, k):
    """``(values, est_errors)`` for each row of ``sums``, the partial sums of a
    depth-``k`` composition on ``_grid(cutoff)``.

    A convergent series with integer entries has the truncation expansion

        S(N) ~ zeta + sum over i >= 1, 0 <= j < depth of c_ij (log N)**j / N**i

    (Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 2001; Crandall,
    Math. Comp. 1998).  A value is the constant term of its least-squares fit
    truncated after order ``p`` (the powers ``1/N**i`` with ``i <= p``), one
    dot product with a row of ``_fit_rows``.  Four fits are compared: orders
    ``p`` and ``p - 1``, each on the full grid and on the grid without its
    lowest quarter.  ``value`` is the order-``p`` fit on the full grid, and
    ``est_error`` twice its largest disagreement with the other three, plus a
    rounding floor ``||row||_1 * eps * max|S|`` for the largest row of the
    four.  The disagreement with order ``p - 1`` is about the error of order
    ``p - 1``, so twice it covers the error of order ``p`` whenever that
    order is at least a third more accurate; a single disagreement fell up to
    17% short on deep compositions whose expansion is barely resolved.  Of
    the orders ``p >= 2`` the one with the smallest ``est_error`` is kept.
    The estimate is empirical, not a proven bound, and a tolerance below its
    rounding floor can never be met.

    A row's fits are elementwise products summed along that row, not a matrix
    product whose rounding could depend on how many rows there are.
    """
    import numpy as np

    (_, full_rows, full_norms), (start, short_rows, short_norms) = _fit_rows(cutoff, k)
    if len(full_rows) < 2:
        return sums[:, -1], np.full(len(sums), math.inf)
    full = (sums[:, None, :] * full_rows).sum(axis=2)
    short = (sums[:, None, start:] * short_rows).sum(axis=2)
    floor = np.maximum(full_norms, short_norms) * _EPS * np.abs(sums).max(axis=1, keepdims=True)
    value = full[:, 1:]  # orders p + 1 against p
    spread = np.maximum(
        np.maximum(abs(full[:, :-1] - value), abs(short[:, 1:] - value)), abs(short[:, :-1] - value)
    )
    est = 2 * spread + np.maximum(floor[:, 1:], floor[:, :-1])
    best = est.argmin(axis=1)
    pick = np.arange(len(sums))
    return value[pick, best], est[pick, best]


def _check_cap(name, value):
    """``TypeError`` unless ``value`` is an integer other than a bool,
    ``ValueError`` if it is above ``_MAX_CUTOFF``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {_clip(repr(value))}")
    if value > _MAX_CUTOFF:
        raise ValueError(f"{name} must be at most 2**53, where float64 n stops being exact; got {_clip(value)}")


def _check_numeric(tol, max_n):
    """``float(tol)`` once ``tol``, a real number but not a bool, and ``max_n`` are checked."""
    if not isinstance(tol, Real) or isinstance(tol, bool):
        raise TypeError(f"tolerance must be a real number, got {_clip(repr(tol))}")
    if not 0 < tol <= sys.float_info.max:
        raise ValueError(f"tolerance must be positive and finite, got {_clip(tol)}")
    _check_cap("max_n", max_n)
    if max_n <= _START_N:
        raise ValueError(
            f"max_n must exceed {_START_N}, the first cutoff, so that the sweep can "
            f"double past it; got {_clip(max_n)}"
        )
    return float(tol)


def _evaluate(comps, tol, max_n):
    """``zeta`` of each of ``comps`` in one batched sweep, as a dict by composition.

    Every composition is checked to be convergent before anything is summed.
    The cutoff doubles in place from ``_START_N``, clamped to ``max_n``, and
    each sweep fills the sums on ``_grid(cutoff)``, the grid of its fits; all
    cutoffs but the last are powers of two, so each grid extends the last.
    """
    import numpy as np

    require_convergent(*comps)
    found = {(): ZetaEstimate(1.0, 0, 0.0, True)} if () in comps else {}
    pending = sorted({comp for comp in comps if comp}, key=lambda c: c[::-1])
    at_grid = np.empty((len(pending), 0))  # pending[i]'s sums on the grid so far
    carries, pos, cutoff = {}, 0, _START_N
    while pending:
        grid = _grid(cutoff)
        at_grid = np.hstack([at_grid, np.empty((len(pending), len(grid) - at_grid.shape[1]))])
        carries = _advance(pending, pos, cutoff, carries, grid, at_grid)
        by_depth, rest = {}, []
        for i, comp in enumerate(pending):
            by_depth.setdefault(len(comp), []).append(i)
        for k, rows in by_depth.items():
            values, errors = _extrapolate(at_grid[rows], cutoff, k)
            for i, value, error in zip(rows, values.tolist(), errors.tolist()):
                if error < tol / 2 or cutoff == max_n:
                    found[pending[i]] = tuple.__new__(ZetaEstimate, (value, cutoff, error, error < tol / 2))
                else:
                    rest.append(i)
        rest.sort()  # back in the batch's order, by reversed entries
        pending = [pending[i] for i in rest]
        at_grid = at_grid[rest]
        pos, cutoff = cutoff, min(2 * cutoff, max_n)
    return found


def zeta(comp: Composition, tol: float, *, max_n: int = DEFAULT_MAX_N) -> ZetaEstimate:
    """Estimate the series by extrapolating its partial sums to ``N = infinity``.

    Fits the truncation expansion to a sweep up to ``2**10`` and doubles the
    cutoff, up to ``max_n``, until the fits agree within ``tol / 2`` (see
    ``_extrapolate``).  An estimate that does not get there by ``max_n`` is
    reported as ``converged=False``, not an exception.  ``tol`` must be
    positive and finite, and ``max_n`` must exceed the first cutoff ``2**10``
    and be at most ``2**53``, where float64 ``n`` stops being exact; otherwise
    ``ValueError`` (``TypeError`` for a ``tol`` that is not a real number or a
    ``max_n`` that is not an integer, or for a bool).  Only then does a
    divergent ``comp`` raise ``DivergentError``.  This is ``_combine`` of the
    basis element ``comp``.
    """
    return _combine([LinComb.basis(composition(comp))], tol, max_n)[0]


_MEMO: dict = {}
"""One dict of estimates by composition for each ``(tol, max_n)``, read and
written only by ``_combine``.  Batches only add entries, and an entry does
not depend on the batch that computed it, so threads share the memo safely:
a lost race only computes an entry twice."""


def _combine(xs, tol, max_n):
    """``zeta_of_lincomb`` of each combination in the list ``xs``, once
    ``tol`` and ``max_n`` are checked.  The terms not in the memo go to
    ``_evaluate``, its only caller, in one batch that holds each once."""
    tol = _check_numeric(tol, max_n)
    memo = _MEMO.setdefault((tol, max_n), {})
    terms = [x.terms() for x in xs]
    missing = dict.fromkeys(comp for pairs in terms for comp, _ in pairs if comp not in memo)
    if missing:
        memo.update(_evaluate(list(missing), tol, max_n))
    estimates = []
    for pairs in terms:
        total, err, cutoff, converged = 0.0, 0.0, 0, True
        for comp, coef in pairs:
            value, cut, error, conv = memo[comp]
            c = float(coef)
            total += c * value
            err += abs(c) * error
            cutoff = max(cutoff, cut)
            converged = converged and conv
        estimates.append(ZetaEstimate(total, cutoff, err, converged))
    return estimates


def zeta_of_lincomb(x: LinComb, tol: float, *, max_n: int = DEFAULT_MAX_N) -> ZetaEstimate:
    """Coefficient-weighted sum of per-term estimates: ``_combine`` of ``x``.

    The reported error is the absolute-coefficient-weighted sum of per-term
    errors; every term must be convergent.  Terms not yet estimated at this
    ``tol`` and ``max_n`` are evaluated in one batch.
    """
    return _combine([x], tol, max_n)[0]


class HomomorphismReport(
    _Record,
    namedtuple(
        "HomomorphismReport",
        "a b expansion lhs rhs_value rhs_error delta tolerance passed",
    ),
):
    """Outcome of checking ``zeta(a x b) == zeta(a) * zeta(b)`` numerically."""

    __slots__ = ()


def verify_homomorphism(
    a: Composition, b: Composition, tol: float, *, max_n: int = DEFAULT_MAX_N
) -> HomomorphismReport:
    """Compare the series of the product expansion against the product of series.

    Passes when the two sides agree within ``tol`` plus the accumulated
    empirical error estimates of both sides, and the estimates of the
    expansion and of both factors converged.
    """
    a = composition(a)
    b = composition(b)
    tol = _check_numeric(tol, max_n)
    require_convergent(a, b)
    expansion = ext_shuffle(a, b)
    lhs, za, zb = _combine([expansion, LinComb.basis(a), LinComb.basis(b)], tol, max_n)
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
        passed=delta < tolerance and lhs.converged and za.converged and zb.converged,
    )

"""Reference oracle: the gather-based series sweep.

This is the sweep ``extshuffle.zeta`` used before it formed each level's
terms in place in a reused workspace.  Every stretch allocates a fresh power
table and block, and every level gathers its table rows and its parents'
shifted sums into row-sized temporaries.  Its rows keep the natural order of
``n`` and are summed run by run with ``np.cumsum``, where the package
interleaves each row's halves and sums two runs per complex128 add, padding
the stretch with a zero run to whole run pairs.  Each run still sees the
same float64 and long-double operations in the same order, so the two must
agree bit for bit.  The chunking is the set-based one the package
used before it planned each batch from the shared suffixes of its sorted
compositions, so the package's chunk boundaries are checked against it; the
constants are the package's, which the two sweeps share by design.
"""

import numpy as np

from extshuffle.zeta import _BLOCK_BYTES, _PIECE, _RUN


def reference_chunks(comps, budget):
    """Split ``comps``, sorted by reversed entries, into chunks
    ``comps[start:stop]`` whose tries have at most ``budget`` nodes; a
    composition with more suffixes than that is a chunk of its own.  Yields
    ``(start, stop)``."""
    start, nodes = 0, set()
    for i, comp in enumerate(comps):
        suffixes = {comp[j:] for j in range(len(comp))}
        if i > start and len(nodes) + len(suffixes - nodes) > budget:
            yield start, i
            start, nodes = i, set()
        nodes |= suffixes
    yield start, len(comps)


def reference_sweep_trie(comps, table, power_row, carries, sums):
    """Sweep the suffix trie of ``comps`` over one stretch, as
    ``extshuffle.zeta._sweep_trie`` does: ``(nodes, ends)``."""
    nodes, bounds = {}, []
    for j in range(1, max(map(len, comps)) + 1):
        for comp in comps:
            if len(comp) >= j:
                nodes.setdefault(comp[len(comp) - j:], len(nodes))
        bounds.append(len(nodes))
    suffixes = list(nodes)
    which = np.array([power_row[-s[0]] for s in suffixes])  # a row's terms are n**-s[0]
    parent = np.array([nodes.get(s[1:], 0) for s in suffixes])
    starts = np.array([carries.get(s, 0) for s in suffixes], dtype=np.longdouble)
    below = starts.astype(np.float64)  # the carries, B(n - 1) at the first n, in float64
    ends = np.empty_like(starts)
    lo = 0
    for hi in bounds:
        level = sums[lo:hi]  # the level's terms, then its sums, in place
        np.take(table, which[lo:hi], axis=0, out=level, mode="clip")
        if lo:  # above the first level (B_0 = 1): times B_{j-1}(n - 1)
            up = parent[lo:hi]
            level[:, 1:] *= sums[up, :-1]
            level[:, 0] *= below[up]
        runs = level.reshape(hi - lo, -1, _RUN)
        np.cumsum(runs, axis=2, out=runs)
        totals = np.cumsum(runs[:, :, -1], axis=1, dtype=np.longdouble)
        if carries:  # all zero at n = 1
            totals += starts[lo:hi, None]
            runs[:, 0] += below[lo:hi, None]
        ends[lo:hi] = totals[:, -1]
        runs[:, 1:] += totals[:, :-1, None].astype(np.float64)
        lo = hi
    return nodes, ends


def reference_advance(comps, pos, target, carries, grid, out):
    """Sweep ``comps``, sorted by reversed entries, from ``n = pos`` to
    ``target``, as ``extshuffle.zeta._advance`` does, and return the carries
    at ``target``.  Non-finite sums are not checked here."""
    powers = sorted({-e for comp in comps for e in comp})
    power_row = {power: i for i, power in enumerate(powers)}
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(pos + 1, target + 1, _PIECE):
            last = min(first + _PIECE - 1, target)
            ms = np.arange(first, last + 1, dtype=np.float64)
            lo, hi = np.searchsorted(grid, [first, last + 1])
            cols = grid[lo:hi] - first
            width = -(-len(ms) // _RUN) * _RUN  # zero terms pad a whole number of runs
            table = np.zeros((len(powers), width))
            for i, power in enumerate(powers):
                np.power(ms, power, out=table[i, : len(ms)])
            budget = max(1, _BLOCK_BYTES // (8 * width))
            sums = np.empty((max(budget, max(map(len, comps))), width))
            swept = {}
            for start, stop in reference_chunks(comps, budget):
                chunk = comps[start:stop]
                nodes, ends = reference_sweep_trie(chunk, table, power_row, carries, sums)
                swept.update(zip(nodes, ends))
                out[start:stop, lo:hi] = sums[:, cols][[nodes[comp] for comp in chunk]]
            carries = swept
    return carries

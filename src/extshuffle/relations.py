"""Double-shuffle relations over the convergent region.

Subtracting the shuffle expansion of a product of convergent series from its
quasi-shuffle expansion yields a rational linear combination in the kernel
of the series map.  The generator below enumerates such relations at desk
scale and certifies each numerically.

Shuffle products of convergent compositions stay convergent, and so do
quasi-shuffle products: the first ``k`` entries of a quasi-shuffle term merge
the first ``i`` entries of ``a`` and the first ``j`` of ``b``, ``k <= i + j``,
so ``w_k = w_i(a) + w_j(b)``, which is ``>= i + j + 2 > k`` when ``i, j >= 1``
and ``w_i(a) > i = k`` when ``j = 0``.  Every term of a relation is
therefore convergent, so a scan never skips a pair and checks no term at run
time; ``RelationScan.skipped`` is kept for its readers and is always empty.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .algebra import Composition, _Record, composition
from .convergence import is_convergent, require_convergent
from .shuffle import ext_shuffle, stuffle
from .zeta import DEFAULT_MAX_N, _check_numeric, _combine


class DoubleShuffleRelation(_Record, namedtuple("DoubleShuffleRelation", "a b difference")):
    """Quasi-shuffle minus shuffle expansion of one convergent pair."""

    __slots__ = ()


def double_shuffle_relation(a: Composition, b: Composition) -> DoubleShuffleRelation:
    """The relation ``stuffle(a,b) - ext_shuffle(a,b)`` for convergent a, b.

    Every basis term of the difference is convergent, by the module note.
    """
    a = composition(a)
    b = composition(b)
    if not a or not b:
        raise ValueError("the unit yields only the trivial relation")
    require_convergent(a, b)
    return DoubleShuffleRelation(a, b, stuffle(a, b) - ext_shuffle(a, b))


class CertifiedRelation(
    _Record, namedtuple("CertifiedRelation", "a b difference residual est_error passed")
):
    """A relation with the series of its difference: it ``passed`` when the
    estimate converged and the residual is within the tolerance plus the
    error bound."""

    __slots__ = ()


class RelationScan(_Record, namedtuple("RelationScan", "relations skipped", defaults=((),))):
    """The certified relations of a scan.  ``skipped`` is always ``()``:
    closure leaves no pair to skip (module note)."""

    __slots__ = ()


def convergent_compositions(max_depth: int, min_entry: int, max_entry: int):
    """All convergent compositions with the given depth and entry bounds,
    in canonical order (unit excluded), as ``itertools.product`` yields them."""
    return [
        entries
        for d in range(1, max_depth + 1)
        for entries in itertools.product(range(min_entry, max_entry + 1), repeat=d)
        if is_convergent(entries)
    ]


def enumerate_relations(
    max_depth: int,
    entry_range: tuple,
    tol: float,
    *,
    max_n: int = DEFAULT_MAX_N,
) -> RelationScan:
    """Certified double-shuffle relations over all convergent pairs in bounds.

    Pairs are unordered (the quasi-shuffle side is symmetric) and scanned in
    canonical order, so the output is deterministic.  Each emitted relation
    carries the numeric residual of its series, its error bound and whether
    it passed (see ``CertifiedRelation``).  No pair is
    skipped (module note).  Every relation is built first, and the union of
    their terms is evaluated in one batch.
    """
    tol = _check_numeric(tol, max_n)
    lo, hi = entry_range
    basis = convergent_compositions(max_depth, lo, hi)
    found = [double_shuffle_relation(a, b) for i, a in enumerate(basis) for b in basis[i:]]
    relations = []
    for rel, est in zip(found, _combine([rel.difference for rel in found], tol, max_n)):
        residual = abs(est.value)
        passed = est.converged and residual <= tol + est.est_error
        relations.append(CertifiedRelation(rel.a, rel.b, rel.difference, residual, est.est_error, passed))
    return RelationScan(tuple(relations))

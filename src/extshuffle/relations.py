"""Double-shuffle relations over the convergent region.

Subtracting the shuffle expansion of a product of convergent series from its
quasi-shuffle expansion yields a rational linear combination in the kernel
of the series map.  The generator below enumerates such relations at desk
scale and certifies each numerically.

Shuffle products of convergent compositions stay convergent, and so do
quasi-shuffle products: the first ``k`` entries of a quasi-shuffle term merge
the first ``i`` entries of ``a`` and the first ``j`` of ``b``, ``k <= i + j``,
so ``w_k = w_i(a) + w_j(b)``, which is ``>= i + j + 2 > k`` when ``i, j >= 1``
and ``w_i(a) > i = k`` when ``j = 0``.  No pair is ever skipped; the skip
record stays because ``RelationScan.skipped`` is public.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Composition, LinComb, composition
from .convergence import is_convergent, require_convergent
from .shuffle import ext_shuffle, stuffle
from .zeta import DEFAULT_MAX_N, _check_numeric, _combine


@dataclass(frozen=True)
class DoubleShuffleRelation:
    """Quasi-shuffle minus shuffle expansion of one convergent pair."""

    a: Composition
    b: Composition
    difference: LinComb
    nonconvergent_terms: tuple

    @property
    def all_convergent(self) -> bool:
        return not self.nonconvergent_terms


def double_shuffle_relation(a: Composition, b: Composition) -> DoubleShuffleRelation:
    """The relation ``stuffle(a,b) - ext_shuffle(a,b)`` for convergent a, b.

    Basis terms of the difference that are not convergent (none, by the
    module note) are flagged in the result rather than raised.
    """
    a = composition(a)
    b = composition(b)
    if not a or not b:
        raise ValueError("the unit yields only the trivial relation")
    require_convergent(a, b)
    star = stuffle(a, b)
    sha = ext_shuffle(a, b)
    bad = tuple(
        term
        for term in sorted(set(star.support()) | set(sha.support()), key=LinComb._key)
        if not is_convergent(term)
    )
    return DoubleShuffleRelation(a, b, star - sha, bad)


@dataclass(frozen=True)
class CertifiedRelation:
    """A relation with the series of its difference: it ``passed`` when the
    estimate converged and the residual is within the tolerance plus the
    estimated error."""

    a: Composition
    b: Composition
    difference: LinComb
    residual: float
    est_error: float
    passed: bool


@dataclass(frozen=True)
class SkippedPair:
    a: Composition
    b: Composition
    nonconvergent_terms: tuple


@dataclass(frozen=True)
class RelationScan:
    relations: tuple
    skipped: tuple


def convergent_compositions(max_depth: int, min_entry: int, max_entry: int):
    """All convergent compositions with the given depth and entry bounds,
    in canonical order (unit excluded)."""
    found = []
    for d in range(1, max_depth + 1):
        for entries in itertools.product(range(min_entry, max_entry + 1), repeat=d):
            if is_convergent(entries):
                found.append(entries)
    found.sort(key=LinComb._key)
    return found


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
    carries the numeric residual of its series, the accumulated empirical
    error and whether it passed (see ``CertifiedRelation``); pairs with a
    non-convergent product term are recorded as skipped.  Every relation is
    built first, and the union of their terms is evaluated in one batch.
    """
    _check_numeric(tol, max_n)
    lo, hi = entry_range
    basis = convergent_compositions(max_depth, lo, hi)
    found = []
    skipped = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            rel = double_shuffle_relation(a, b)
            if rel.nonconvergent_terms:
                skipped.append(SkippedPair(a, b, rel.nonconvergent_terms))
            else:
                found.append(rel)
    relations = []
    for rel, est in zip(found, _combine([rel.difference for rel in found], tol, max_n)):
        residual = abs(est.value)
        passed = est.converged and residual <= tol + est.est_error
        relations.append(CertifiedRelation(rel.a, rel.b, rel.difference, residual, est.est_error, passed))
    return RelationScan(tuple(relations), tuple(skipped))

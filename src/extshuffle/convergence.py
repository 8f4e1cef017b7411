"""The convergent subspace and the partial-weight estimate for products.

A composition ``(s1,...,sk)`` is *convergent* when every partial weight
satisfies ``w_j > j``; these are exactly the integer points at which the
nested zeta series converges.  Convergent compositions are closed under the
extended shuffle product, which is what the modified-partial-weight bound
below certifies term by term.
"""

from __future__ import annotations

from .algebra import Composition, _clip, composition, format_composition
from .shuffle import ext_shuffle


def tilde_w(comp: Composition, j: int) -> int:
    """Modified partial weight: ``w_j`` if entry ``j+1`` is positive or absent,
    else ``w_{j+1}``.

    For the unit, every index ``j >= 0`` gives 0.  Out-of-range indices are
    hard errors; extending them silently would mask off-by-one bugs in the
    product bound.
    """
    if not comp:
        if j < 0:
            raise IndexError(f"index {j} out of range for the unit")
        return 0
    if not 0 <= j <= len(comp):
        raise IndexError(f"index {j} out of range for depth {len(comp)}")
    if j == len(comp) or comp[j] > 0:
        return sum(comp[:j])
    return sum(comp[: j + 1])


def is_convergent(comp: Composition) -> bool:
    """Whether ``w_j > j`` for all ``1 <= j <= depth``; the unit is convergent."""
    return first_divergent_index(comp) is None


class DivergentError(ValueError):
    """A composition outside the convergent subspace; ``reason`` names its
    first partial weight with ``w_j <= j``."""

    def __init__(self, comp, j, w):
        self.comp = comp
        self.reason = f"partial weight at j={j} is {w}, requires > {j}"
        super().__init__(f"composition {_clip(format_composition(comp))} is not convergent ({self.reason})")


def require_convergent(*comps: Composition) -> None:
    """Raise ``DivergentError`` for the first of ``comps`` whose series diverges."""
    for comp in comps:
        found = first_divergent_index(comp)
        if found:
            raise DivergentError(comp, *found)


def first_divergent_index(comp: Composition):
    """Smallest ``j`` with ``w_j <= j`` together with ``w_j``, or ``None``."""
    total = 0
    for j, entry in enumerate(comp, start=1):
        total += entry
        if total <= j:
            return j, total
    return None


def product_weight_lower_bound(a: Composition, b: Composition, k: int) -> int:
    """Lower bound for the k-th partial weight of every term of ``a x b``:
    the minimum of ``tilde_w(a, i) + tilde_w(b, j)`` over ``i + j = k``.
    """
    m, p = len(a), len(b)
    if not 1 <= k <= m + p:
        raise IndexError(f"index {k} out of range for depths {m} + {p}")
    lo = max(0, k - p)
    hi = min(k, m)
    return min(tilde_w(a, i) + tilde_w(b, k - i) for i in range(lo, hi + 1))


def check_closure(a: Composition, b: Composition) -> bool:
    """Whether every term of ``a x b`` is convergent, for convergent inputs.

    Closure always holds, so ``False`` signals an implementation bug rather
    than a data condition.
    """
    a = composition(a)
    b = composition(b)
    require_convergent(a, b)
    return all(is_convergent(term) for term, _ in ext_shuffle(a, b).items())

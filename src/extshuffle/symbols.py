"""Chen symbols: compositions carried over rows of distinct variable labels.

A Chen symbol ``<s1,...,sk; u1,...,uk>`` pairs an integer composition (top
row) with pairwise-distinct positive integer labels (bottom row).  Symbols
with disjoint label sets are *independent*; only independent symbols may be
multiplied.  The locality product is the extended shuffle engine of
:mod:`extshuffle.shuffle` run at stride 2 on the symbol's two rows
interleaved, ``(s1, u1, s2, u2, ...)``: the top row follows
its three closed-form sums (the Leibniz rule solved for a nonpositive leading
entry on either side, and the generalized Euler decomposition for two
positive ones), which descend by depth only, and each zero peeled off a
factor keeps that factor's first label.  So every result term's label row is
a shuffle of the two input label rows, and dropping the label rows projects
back onto the composition algebra.  Those rows are valid by construction,
so the result symbols skip the checks of the public constructor.  Symbols share
the record base ``_Rows`` and the sum base ``_RowsSum`` with the Chen fractions
of :mod:`extshuffle.chenfrac`; ``opS_I`` and ``opS_J`` are ``algebra._shift``.

Basis products share the engine's one memo, a plain dict keyed by term and
stride, and its contract: values are immutable, only finished maps are
stored (the products asked for, and the sub-products a build asked for
twice), and threads may fill it at once.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import LinComb, _clip, _Record, _TermSum, _merge, _shift, composition, format_composition
from .shuffle import _product


def _check_rows(exponents, indices, name):
    """Both rows as tuples, after checking that the exponents are integers and
    the ``name`` row holds as many pairwise-distinct positive integers."""
    exponents, indices = tuple(exponents), tuple(indices)
    if len(exponents) != len(indices):
        raise ValueError(
            f"rows must have equal length: {len(exponents)} exponents "
            f"vs {len(indices)} {name}"
        )
    composition(exponents)
    for u in indices:
        if not isinstance(u, int) or isinstance(u, bool) or u < 1:
            raise ValueError(f"{name} must be positive integers, got {_clip(repr(u))}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"{name} must be pairwise distinct, got {_clip(indices)}")
    return exponents, indices


class _Rows(_Record):
    """Base of the two-row records; a subclass gives its named-tuple fields, a
    ``__new__`` that checks the rows and the ``_frame`` its ``str`` fills."""

    __slots__ = ()

    @classmethod
    def _from_clean(cls, exponents, bottom):
        # Internal fast path: the rows must already be valid tuples.
        return tuple.__new__(cls, (exponents, bottom))

    @property
    def depth(self) -> int:
        return len(self.exponents)

    def __str__(self):
        exponents, bottom = self
        if not exponents:
            return "1"
        return self._frame.format(format_composition(exponents), format_composition(bottom))


class ChenSymbol(_Rows, namedtuple("ChenSymbol", "exponents labels")):
    """Two-row basis symbol; the unit has both rows empty."""

    __slots__ = ()
    _frame = "<{};{}>"

    def __new__(cls, exponents, labels):
        return tuple.__new__(cls, _check_rows(exponents, labels, "labels"))


SYMBOL_UNIT = ChenSymbol((), ())


class _RowsSum(_TermSum):
    """Base of the sums of two-row records; ``_bottom`` is the bottom row's JSON name."""

    @staticmethod
    def _key(term):
        exponents, bottom = term  # a named field read costs more than this unpacking
        return (len(bottom), bottom, exponents)

    def _json_term(self, term):
        exponents, bottom = term
        return {"comp": list(exponents), self._bottom: list(bottom)}

    @staticmethod
    def _shifted(term, delta):
        exponents, bottom = term
        if not exponents:
            return None
        return term._from_clean((exponents[0] + delta,) + exponents[1:], bottom)


class SymbolLinComb(_RowsSum):
    """Finite rational sum of Chen symbols, ordered by (labels, exponents)."""

    _bottom = "labels"


def independent(a: ChenSymbol, b: ChenSymbol) -> bool:
    """The locality relation: label sets disjoint (the unit meets everything)."""
    (_, left), (_, right) = a, b
    return not set(left) & set(right)


def make_independent(a: ChenSymbol, b: ChenSymbol) -> ChenSymbol:
    """Relabel ``b`` with fresh labels above ``max(a.labels)`` if it overlaps ``a``."""
    if independent(a, b):
        return b
    floor = max(a.labels, default=0)
    return ChenSymbol(b.exponents, tuple(range(floor + 1, floor + 1 + b.depth)))


def symbol_product(a: ChenSymbol, b: ChenSymbol) -> SymbolLinComb:
    """Locality product of two independent Chen symbols.

    Raises ``ValueError`` on overlapping label sets: the product is only
    defined on independent pairs, and a partial value would silently poison
    downstream fraction identities.
    """
    (top, left), (bottom, right) = a, b
    shared = set(left) & set(right)
    if shared:
        raise ValueError(f"symbols are not independent, shared labels {_clip(sorted(shared))}")
    # each term interleaves its rows; the result rows are valid by construction
    raw = _product(sum(zip(top, left), ()), sum(zip(bottom, right), ()), 2)
    return SymbolLinComb._from_clean(
        {ChenSymbol._from_clean(t[0::2], t[1::2]): coef for t, coef in raw.items()}
    )


def opS_I(x: SymbolLinComb) -> SymbolLinComb:
    """Increment each term's first exponent; undefined on the unit symbol."""
    return _shift(x, 1, "first-exponent increment is undefined on the unit symbol")


def opS_J(x: SymbolLinComb) -> SymbolLinComb:
    """Decrement each term's first exponent; the unit symbol maps to zero."""
    return _shift(x, -1)


def phi_project(x: SymbolLinComb) -> LinComb:
    """Forget the label rows, merging coefficients of equal top rows."""
    return LinComb._from_clean(_merge({}, ((sym.exponents, c) for sym, c in x.items())))

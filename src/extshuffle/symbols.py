"""Chen symbols: compositions carried over rows of distinct variable labels.

A Chen symbol ``<s1,...,sk; u1,...,uk>`` pairs an integer composition (top
row) with pairwise-distinct positive integer labels (bottom row).  Symbols
with disjoint label sets are *independent*; only independent symbols may be
multiplied.  The locality product is the extended shuffle engine of
:mod:`extshuffle.shuffle` run on the symbol's two rows: the top row follows
its three closed-form sums (the Leibniz rule solved for a negative leading
entry on either side, and the generalized Euler decomposition for two
positive ones), which descend by depth only, and each zero peeled off a
factor keeps that factor's first label.  So every result term's label row is
a shuffle of the two input label rows, and dropping the label rows projects
back onto the composition algebra.

Basis products share the engine's memo and its contract: values are
immutable and the cache tolerates concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LinComb, _TermSum, _merge, composition, format_composition
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
            raise ValueError(f"{name} must be positive integers, got {u!r}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"{name} must be pairwise distinct, got {indices}")
    return exponents, indices


@dataclass(frozen=True)
class ChenSymbol:
    """Two-row basis symbol; the unit has both rows empty."""

    exponents: tuple
    labels: tuple

    def __post_init__(self):
        exponents, labels = _check_rows(self.exponents, self.labels, "labels")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "labels", labels)

    @property
    def depth(self) -> int:
        return len(self.exponents)

    def __str__(self):
        if not self.exponents:
            return "1"
        top = format_composition(self.exponents)
        bottom = format_composition(self.labels)
        return f"<{top};{bottom}>"


SYMBOL_UNIT = ChenSymbol((), ())


class SymbolLinComb(_TermSum):
    """Finite rational sum of Chen symbols, ordered by (labels, exponents)."""

    @staticmethod
    def _key(sym):
        return (len(sym.labels), sym.labels, sym.exponents)

    @staticmethod
    def _term_str(sym):
        return str(sym)

    @staticmethod
    def _json_term(sym):
        return {"comp": list(sym.exponents), "labels": list(sym.labels)}


def independent(a: ChenSymbol, b: ChenSymbol) -> bool:
    """The locality relation: label sets disjoint (the unit meets everything)."""
    return not set(a.labels) & set(b.labels)


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
    if not independent(a, b):
        shared = sorted(set(a.labels) & set(b.labels))
        raise ValueError(f"symbols are not independent, shared labels {shared}")
    raw = _product((a.exponents, a.labels), (b.exponents, b.labels))
    return SymbolLinComb._from_clean(
        {ChenSymbol(exp, lab): coef for (exp, lab), coef in raw.items()}
    )


def opS_I(x: SymbolLinComb) -> SymbolLinComb:
    """Increment each term's first exponent; undefined on the unit symbol."""
    out = {}
    for sym, coef in x.items():
        if not sym.depth:
            raise ValueError("first-exponent increment is undefined on the unit symbol")
        out[ChenSymbol((sym.exponents[0] + 1,) + sym.exponents[1:], sym.labels)] = coef
    return SymbolLinComb._from_clean(out)


def opS_J(x: SymbolLinComb) -> SymbolLinComb:
    """Decrement each term's first exponent; the unit symbol maps to zero."""
    out = {}
    for sym, coef in x.items():
        if sym.depth:
            out[ChenSymbol((sym.exponents[0] - 1,) + sym.exponents[1:], sym.labels)] = coef
    return SymbolLinComb._from_clean(out)


def phi_project(x: SymbolLinComb) -> LinComb:
    """Forget the label rows, merging coefficients of equal top rows."""
    return LinComb._from_clean(_merge({}, ((sym.exponents, c) for sym, c in x.items())))

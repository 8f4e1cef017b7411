"""Generalized Chen fractions: formal, exactly evaluable rational functions.

``ChenFraction((s1,...,sk), (i1,...,ik))`` denotes the product over j of
``(x_{i_j} + x_{i_{j+1}} + ... + x_{i_k}) ** (-s_j)``.  Negative exponents
are allowed, so a "fraction" may in fact be a polynomial.  A fraction has the two
rows of the Chen symbol it sums, so it shares the symbols' two-row bases and
first-exponent shift (:mod:`extshuffle.symbols`).

Formal terms are *not* linearly independent as functions (the exponent-zero
fraction in any single variable is the constant 1), so equality of
combinations is decided semantically, by exact rational evaluation on a
deterministic panel of positive points, never by comparing term sets.
Positive coordinates keep every sum-of-variables denominator nonzero.
The test is one-sided: a ``False`` is exact (some point tells the two
apart), but a ``True`` is not a proof.  With ``P`` the product of
``(x - v)`` over the 7 distinct values of the default one-variable panel,
the 8-term combination ``sum_k [x^k]P * f([-k];[1])`` vanishes on the
panel, so ``equal_on_panel`` calls it zero, yet it is 425/9 at ``x1 = 3``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .algebra import _clip
from .symbols import ChenSymbol, SymbolLinComb, _check_rows, _Rows, _RowsSum, symbol_product


class VanishingDenominatorError(ArithmeticError):
    """A denominator linear form vanished at the evaluation point."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        form = "+".join(f"x{i}" for i in self.indices)
        super().__init__(f"denominator {_clip(form)} vanishes at the evaluation point")


class ChenFraction(_Rows, namedtuple("ChenFraction", "exponents var_indices")):
    """One generalized Chen fraction; the unit (both rows empty) is the constant 1."""

    __slots__ = ()
    _frame = "f({};{})"

    def __new__(cls, exponents, var_indices):
        return tuple.__new__(cls, _check_rows(exponents, var_indices, "variable indices"))

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a rational point assigning every variable index."""
        return Fraction(*self._ratio(point))

    def _ratio(self, point) -> tuple:
        """The value at ``point`` as integers ``(num, den)``, not normalized."""
        exponents, indices = self  # a named field read costs more than this unpacking
        missing = [i for i in indices if i not in point]
        if missing:
            raise ValueError(f"no value assigned to variable index {_clip(missing[0])}")
        # integer numerators and denominators, normalized once at the end
        num = den = 1
        top, bottom = 0, 1  # the running suffix sum
        for j in range(len(exponents) - 1, -1, -1):  # innermost factor first
            x = point[indices[j]]
            if not isinstance(x, Fraction):
                x = Fraction(x)
            top, bottom = top * x.denominator + x.numerator * bottom, bottom * x.denominator
            s = exponents[j]
            if s > 0:
                if top == 0:
                    raise VanishingDenominatorError(indices[j:])
                num, den = num * bottom**s, den * top**s
            elif s < 0:
                num, den = num * top**-s, den * bottom**-s
        return num, den


FRACTION_UNIT = ChenFraction((), ())


class FractionLinComb(_RowsSum):
    """Finite rational sum of Chen fractions (formal terms, see module note)."""

    _bottom = "var_indices"


def F_map(x: SymbolLinComb) -> FractionLinComb:
    """Reinterpret each Chen symbol as the fraction over its label variables."""
    # a symbol's rows are valid fraction rows
    return FractionLinComb._from_clean(
        {ChenFraction._from_clean(*sym): coef for sym, coef in x.items()}
    )


def evaluate(x, point: Mapping[int, Fraction]) -> Fraction:
    """Exact rational value of a fraction or a combination at ``point``."""
    if isinstance(x, ChenFraction):
        return x.evaluate(point)
    # one integer ratio over the least common denominator, normalized once
    top, bottom = 0, 1
    for frac, coef in x.items():
        num, den = frac._ratio(point)
        num, den = num * coef.numerator, den * coef.denominator
        g = gcd(bottom, den)
        top, bottom = top * (den // g) + num * (bottom // g), bottom // g * den
    return Fraction(top, bottom)


def variables(x) -> tuple:
    """Sorted variable indices appearing in a fraction or combination."""
    if isinstance(x, ChenFraction):
        return tuple(sorted(x.var_indices))
    return tuple(sorted({i for (_, indices), _ in x.items() for i in indices}))


def mult_by_linear(x: ChenFraction, direction: str) -> ChenFraction:
    """Multiply (``down``) or divide (``up``) by the full linear form.

    Multiplying by ``x_{i_1}+...+x_{i_k}`` lowers the first exponent by one;
    dividing raises it.  Undefined at depth 0.
    """
    if not x.depth:
        raise ValueError("the unit fraction has no leading linear form")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return FractionLinComb._shifted(x, -1 if direction == "down" else 1)


def fraction_product(a: ChenFraction, b: ChenFraction) -> FractionLinComb:
    """Product of fractions with disjoint variables, via the symbol lift.

    The result is semantically equal to the pointwise product; every term's
    variable row is a shuffle of the two input rows.
    """
    shared = set(a.var_indices) & set(b.var_indices)
    if shared:
        raise ValueError(f"fractions share variable indices {_clip(sorted(shared))}")
    # the rows are valid symbol rows
    return F_map(symbol_product(ChenSymbol._from_clean(*a), ChenSymbol._from_clean(*b)))


def evaluation_panel(indices: Iterable[int], *, count: int = 8, seed: int = 0) -> list:
    """Deterministic panel of positive rational points for semantic equality.

    The first two points are symmetric (all coordinates 1, then all 1/2); the
    remaining points are pseudo-random with numerators and denominators drawn
    from 1..7, seeded for reproducibility.  All coordinates are positive, so
    no sum-of-variables denominator can vanish on the panel.
    """
    if count < 1:
        raise ValueError(f"an evaluation panel needs at least one point, got count={count}")
    indices = sorted(set(indices))
    rng = random.Random(seed)
    panel = []
    for value in (Fraction(1), Fraction(1, 2))[:count]:
        panel.append({i: value for i in indices})
    while len(panel) < count:
        panel.append({i: Fraction(rng.randint(1, 7), rng.randint(1, 7)) for i in indices})
    return panel


def equal_on_panel(x, y, *, seed: int = 0, count: int = 8) -> bool:
    """Semantic equality of two fractions/combinations on the evaluation panel.

    ``False`` is exact; ``True`` only means the two agree on the panel's
    points, which is not a proof (see the module docstring).
    """
    shared = sorted(set(variables(x)) | set(variables(y)))
    for point in evaluation_panel(shared, count=count, seed=seed):
        if evaluate(x, point) != evaluate(y, point):
            return False
    return True

"""Exact arithmetic on the algebra of integer compositions.

Basis symbols are *compositions*: finite tuples ``(s1, ..., sk)`` of
integers, with the empty tuple as the unit.  ``LinComb`` holds a finite
formal sum of compositions with exact rational coefficients (``int`` or
``fractions.Fraction``; floats are rejected so every identity stays exact).

The first-entry shift operators ``op_I`` and ``op_J`` are mutually inverse
on terms of positive depth; ``op_J`` kills the unit.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable

Composition = tuple
"""A composition is a plain ``tuple[int, ...]``; ``()`` is the unit."""

UNIT: Composition = ()


def composition(entries: Iterable[int]) -> Composition:
    """Build a composition from an iterable of integers, validating entries."""
    comp = tuple(entries)
    for e in comp:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"composition entries must be integers, got {e!r}")
    return comp


def depth(comp: Composition) -> int:
    """Number of entries of ``comp``; the unit has depth 0."""
    return len(comp)


def partial_weight(comp: Composition, i: int) -> int:
    """Sum of the first ``i`` entries, ``w_i``; ``w_0 = 0``."""
    if not 0 <= i <= len(comp):
        raise IndexError(
            f"partial weight index {i} out of range for depth {len(comp)}"
        )
    return sum(comp[:i])


def weight(comp: Composition) -> int:
    """Sum of all entries."""
    return sum(comp)


def format_composition(comp: Composition) -> str:
    """Render ``(2, -1)`` as ``[2,-1]``; the unit renders as ``1``."""
    if not comp:
        return "1"
    return "[" + ",".join(str(e) for e in comp) + "]"


def _check_coefficient(coef):
    if isinstance(coef, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    if not isinstance(coef, Rational):
        raise TypeError(f"coefficients must be int or Fraction, got {type(coef).__name__}")
    return coef


def _merge(data, items):
    """Add the ``(term, coef)`` pairs ``items`` into ``data``; drop terms that cancel."""
    for term, coef in items:
        c = data.get(term, 0) + coef
        if c:
            data[term] = c
        else:
            data.pop(term, None)
    return data


class _TermSum:
    """Sparse formal sum of basis terms with exact rational coefficients.

    Shared machinery for the concrete combination types (compositions, Chen
    symbols, Chen fractions).  Zero coefficients are never stored.  Instances
    are immutable by convention: every operation returns a new object, so
    values may be cached and shared freely, including between threads.
    """

    __slots__ = ("_terms",)

    @staticmethod
    def _key(term):
        raise NotImplementedError

    @staticmethod
    def _term_str(term) -> str:
        raise NotImplementedError

    def __init__(self, terms=None):
        items = terms.items() if hasattr(terms, "items") else terms or ()
        self._terms = _merge({}, ((t, _check_coefficient(c)) for t, c in items))

    @classmethod
    def _from_clean(cls, data):
        # Internal fast path: `data` must already be zero-free and validated.
        obj = object.__new__(cls)
        obj._terms = data
        return obj

    @classmethod
    def zero(cls):
        return cls._from_clean({})

    @classmethod
    def basis(cls, term, coef=1):
        """The single-term combination ``coef * term``."""
        _check_coefficient(coef)
        return cls._from_clean({term: coef} if coef else {})

    def items(self):
        """Iterate ``(term, coef)`` pairs in unspecified order."""
        return self._terms.items()

    def terms(self):
        """List of ``(term, coef)`` pairs in canonical order."""
        key = self._key
        return sorted(self._terms.items(), key=lambda tc: key(tc[0]))

    def support(self):
        """Basis terms with nonzero coefficient, in canonical order."""
        return sorted(self._terms, key=self._key)

    def coefficient(self, term):
        return self._terms.get(term, 0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._from_clean(_merge(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._from_clean({t: -c for t, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, float) or not isinstance(scalar, Rational):
            return NotImplemented
        if not scalar:
            return self.zero()
        return self._from_clean({t: c * scalar for t, c in self._terms.items()})

    __rmul__ = __mul__

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for term, coef in self.terms():
            negative = coef < 0
            mag = -coef if negative else coef
            body = self._term_str(term)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}{body}"
            if not pieces:
                pieces.append(f"-{text}" if negative else text)
            else:
                pieces.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"

    def to_json_dict(self) -> dict:
        """Canonical JSON form, for subclasses whose ``_json_term`` gives a term's fields."""
        terms = [{"coef": str(Fraction(c)), **self._json_term(t)} for t, c in self.terms()]
        return {"terms": terms}


class LinComb(_TermSum):
    """Element of the composition algebra: a finite rational sum of ``[s]``.

    Canonical term order is lexicographic on entry lists, shorter first.
    """

    @staticmethod
    def _key(term):
        return (len(term), term)

    @staticmethod
    def _term_str(term):
        return format_composition(term)

    @staticmethod
    def _json_term(term):
        return {"comp": list(term)}

    @classmethod
    def from_json_dict(cls, data) -> "LinComb":
        return cls(
            (composition(entry["comp"]), Fraction(entry["coef"]))
            for entry in data["terms"]
        )


def op_I(x: LinComb) -> LinComb:
    """Increment the first entry of every term; undefined on the unit.

    ``op_I`` and ``op_J`` are mutually inverse on positive depth only, so a
    unit term is an error here rather than a silent skip.
    """
    out = {}
    for comp, coef in x.items():
        if not comp:
            raise ValueError("first-entry increment is undefined on the unit term")
        out[(comp[0] + 1,) + comp[1:]] = coef
    return LinComb._from_clean(out)


def op_J(x: LinComb) -> LinComb:
    """Decrement the first entry of every term; the unit maps to zero."""
    out = {}
    for comp, coef in x.items():
        if comp:
            out[(comp[0] - 1,) + comp[1:]] = coef
    return LinComb._from_clean(out)

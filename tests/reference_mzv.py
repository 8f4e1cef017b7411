"""Reference oracle: admissible multiple zeta values to 200 bits.

An admissible composition ``(s1, ..., sk)`` (every entry at least 1, the
first at least 2) has the word ``x0^(s1-1) x1 ... x0^(sk-1) x1``, and its
series is the iterated integral of that word over ``1 > t1 > ... > tw > 0``
with ``x0 = dt/t`` and ``x1 = dt/(1 - t)``.  Splitting the integral where
the variables pass 1/2 and substituting ``t -> 1 - t`` above it gives the
Hölder convolution (Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS
2001):

    zeta(a_1 ... a_w) = sum over j = 0..w of L(dual(a_j ... a_1)) * L(a_{j+1} ... a_w)

where ``dual`` swaps ``x0`` and ``x1`` and, for a word ending in ``x1``
with composition ``(m1, ..., mr)``,

    L = sum over n1 > ... > nr >= 1 of 2**-n1 / (n1**m1 * ... * nr**mr),

and ``L`` of the empty word is 1.  Every ``L`` here ends in ``x1`` (the
first letter of an admissible word is ``x0``), so every sum converges
like ``2**-n``.  They are summed in fixed point, integers scaled by
``2**_SCALE``, to ``n1 <= _TERMS``; each floor division loses less than
one unit, and the tail beyond ``_TERMS`` is far below ``2**-200`` for the
depths the tests use.  The inner sums of ``L`` depend only on its
composition's suffix, so they are shared through a cache by suffix.

This module shares no code with ``extshuffle.zeta``; its word encoding is
its own.
"""

from fractions import Fraction
from functools import lru_cache

BITS = 200
_SCALE = BITS + 40  # guard bits for the rounding of the floor divisions
_TERMS = _SCALE + 60  # 2**-n1 * n1**(depth - 1) is far below 2**-BITS past here


def word(comp):
    """The word of ``comp`` as a string of ``0`` (x0) and ``1`` (x1)."""
    if not comp or comp[0] < 2 or min(comp) < 1:
        raise ValueError(f"not an admissible composition: {comp}")
    return "".join("0" * (s - 1) + "1" for s in comp)


def _composition(letters):
    """The composition of a word that ends in ``1``."""
    return tuple(len(run) + 1 for run in letters[:-1].split("1")) if letters else ()


@lru_cache(maxsize=None)
def _inner(suffix):
    """``B[n]`` for ``n <= _TERMS``: the sum over ``n > n_1 > ... > n_r >= 1``
    of ``prod n_i**-suffix[i]``, scaled by ``2**_SCALE`` (1 for the empty
    suffix)."""
    if not suffix:
        return (1 << _SCALE,) * (_TERMS + 1)
    below, exponent = _inner(suffix[1:]), suffix[0]
    sums, acc = [0, 0], 0
    for n in range(1, _TERMS):
        acc += below[n] // n**exponent
        sums.append(acc)
    return tuple(sums)


@lru_cache(maxsize=None)
def _polylog_half(comp):
    """``L`` of the word of ``comp`` at 1/2, scaled by ``2**_SCALE``."""
    if not comp:
        return 1 << _SCALE
    below, exponent = _inner(comp[1:]), comp[0]
    return sum((below[n] // n**exponent) >> n for n in range(1, _TERMS + 1))


def mzv(comp):
    """``zeta(comp)`` of an admissible composition as a ``Fraction``, within
    about ``2**-200``."""
    letters = word(tuple(comp))
    dual = letters.translate(str.maketrans("01", "10"))
    total = 0
    for j in range(len(letters) + 1):
        head = _polylog_half(_composition(dual[:j][::-1]))
        tail = _polylog_half(_composition(letters[j:]))
        total += head * tail
    return Fraction(total, 1 << (2 * _SCALE))

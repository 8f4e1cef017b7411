"""The extended shuffle product on integer compositions and Chen symbols.

The product is total on all integer compositions.  ``J`` decrements the
first entry and ``I`` increments it; the product is the unique one for which
the unit is a two-sided identity, zero-prefixed factors peel off, ``J`` is a
derivation (the Leibniz rule ``J(a x b) = J(a) x b + a x J(b)``) and
positive leading entries obey the weight-zero Rota-Baxter shape
``a x b = I(a x J(b)) + I(J(a) x b)``.

Write ``a = [s1,a']``, ``b = [t1,b']``, ``m = -s1`` and ``n = -t1``.  Besides
the two zero-peeling cases, ``[0,a'] x b = [0, a' x b]`` and, for
``s1 > 0``, ``a x [0,b'] = [0, a x b']``, the Leibniz rule and the
Rota-Baxter shape each fold into binomial sums over the leading entries:

* ``s1 < 0``: ``sum_{k=0..m} (-1)^k C(m,k) J^(m-k) [0, a' x J^k(b)]``.
  This is the Leibniz rule solved for ``a = J^m [0,a']``.
* ``s1 > 0, t1 < 0``::

      sum_{k=0..min(s1-1,n)} (-1)^k C(n,k) J^(n-k) [0, J^k(a) x b']
    + (-1)^s1 sum_{j=0..n-s1} C(n-1-j, s1-1) J^(n-s1-j) [0, a' x [-j,b']]

  The Leibniz rule solved for ``b = J^n [0,b']`` gives
  ``sum_k (-1)^k C(n,k) J^(n-k) (J^k(a) x [0,b'])``.  Its terms with
  ``k < s1`` peel the zero of ``[0,b']``; those with ``k >= s1`` expand by
  the ``s1 < 0`` sum into shifts ``J^(n-s1-j)`` that do not depend on ``k``,
  and their binomials sum to the closed form above.  So no two terms cancel
  and no pair of the same depth sum is visited.
* ``s1, t1 > 0``, Euler's decomposition as generalized by Guo and Xie
  ("Explicit double shuffle relations and a generalization of Euler's
  decomposition formula", J. Algebra 2013), which sums the Rota-Baxter
  recursion over its lattice paths down to a zero leading entry::

      sum_{j=1..t1} C(s1-1+t1-j, s1-1) I^(s1+t1-j) [0, a' x [j,b']]
    + sum_{i=1..s1} C(t1-1+s1-i, t1-1) I^(s1+t1-i) [0, [i,a'] x b']

The product is not commutative, so the ``t1 < 0`` sums are not the
``s1 < 0`` sum with the factors swapped.

Termination: every case recurses only on pairs whose depth sum is one less,
so the recursion descends by depth only.  Its depth is bounded by the depth
sum whatever the size of the entries, and each sum visits a number of pairs
linear in the leading entries.  Every result term has depth equal to the sum
of the factors' depths, and the restriction to compositions with all
entries >= 1 agrees with the classical word shuffle pulled back along the
encoding ``rho`` (implemented independently below as an oracle).

One engine serves compositions and Chen symbols.  It works on pairs
``(exponents, labels)``, whose label row rides along: each zero peeled off
a factor keeps that factor's first label.  A composition is a symbol with
an empty label row, for which ``labels[:1]`` is empty too.  Basis products
have integer coefficients.  They are memoized with ``functools.cache`` as
labelled pairs, and ``ext_shuffle``'s own results again with the label rows
stripped; the caches are safe to share between threads (a lost race only
recomputes a value).

The word shuffle and the quasi-shuffle (stuffle) share ``_interleave``, which
fills the table over suffix pairs iteratively and so does not recurse.  It
keeps no memo: each call builds and returns a fresh map.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .algebra import Composition, LinComb, composition

Word = tuple
"""A word over the two-letter alphabet, as a tuple of 0/1 integers."""

X0, X1 = 0, 1


# ---------------------------------------------------------------------------
# extended shuffle product


def _put(out, coef, head, lab, terms):
    """Store ``coef * [head, terms]`` in ``out``, with ``lab`` leading the
    label rows; the new keys must not be in ``out`` yet."""
    for (e, l), c in terms.items():
        out[head + e, lab + l] = coef * c
    return out


@cache
def _product(a, b):
    """Product of two ``(exponents, labels)`` pairs, as a map from such pairs
    to nonzero integer coefficients; never mutated once built."""
    (s, u), (t, v) = a, b
    if not s:
        return {b: 1}
    if not t:
        return {a: 1}
    s1, t1 = s[0], t[0]
    left, left_lab = (s[1:], u[1:]), u[:1]
    right, right_lab = (t[1:], v[1:]), v[:1]
    out = {}
    # every call below has a smaller depth sum (the termination measure);
    # within each sum the heads differ, and so do the keys
    if s1 == 0:
        return _put(out, 1, (0,), left_lab, _product(left, b))
    if s1 < 0:
        m = -s1
        for k in range(m + 1):
            ck = (-1) ** k * comb(m, k)
            _put(out, ck, (k - m,), left_lab, _product(left, ((t1 - k,) + t[1:], v)))
        return out
    if t1 == 0:
        return _put(out, 1, (0,), right_lab, _product(a, right))
    if t1 < 0:
        # the first sum's heads are below s1 - n, the second's are not
        n = -t1
        for k in range(min(s1 - 1, n) + 1):
            ck = (-1) ** k * comb(n, k)
            _put(out, ck, (k - n,), right_lab, _product(((s1 - k,) + s[1:], u), right))
        for j in range(n - s1 + 1):
            cj = (-1) ** s1 * comb(n - 1 - j, s1 - 1)
            _put(out, cj, (s1 + j - n,), left_lab, _product(left, ((-j,) + t[1:], v)))
        return out
    w = s1 + t1
    for j in range(1, t1 + 1):
        cj = comb(w - j - 1, s1 - 1)
        _put(out, cj, (w - j,), left_lab, _product(left, ((j,) + t[1:], v)))
    # the two sums share heads, so with empty label rows their terms merge
    for i in range(1, s1 + 1):
        ci = comb(w - i - 1, t1 - 1)
        head = (w - i,)
        for (e, l), c in _product(((i,) + s[1:], u), right).items():
            key = (head + e, right_lab + l)
            out[key] = out.get(key, 0) + ci * c
    return {key: c for key, c in out.items() if c}


@cache
def _basis_product(a, b):
    """``_product`` on two compositions, with the empty label rows stripped."""
    return {e: c for (e, _), c in _product((a, ()), (b, ())).items()}


def ext_shuffle(a: Composition, b: Composition) -> LinComb:
    """Extended shuffle product of two basis compositions."""
    a = composition(a)
    b = composition(b)
    return LinComb._from_clean(_basis_product(a, b))


def ext_shuffle_lin(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of :func:`ext_shuffle` to linear combinations."""
    acc: dict = {}
    for ta, ca in x.items():
        for tb, cb in y.items():
            c = ca * cb
            for (comp, _), k in _product((ta, ()), (tb, ())).items():
                v = acc.get(comp, 0) + c * k
                if v:
                    acc[comp] = v
                else:
                    del acc[comp]
    return LinComb._from_clean(acc)


def is_leading_positive(x: LinComb) -> bool:
    """Whether every term has depth >= 1 and a positive first entry.

    Leading-positive combinations are closed under the product; the zero
    combination is vacuously leading positive.
    """
    return all(comp and comp[0] > 0 for comp in x.support())


# ---------------------------------------------------------------------------
# classical word shuffle, the independent oracle on all-positive compositions,
# and the quasi-shuffle (stuffle) product


def rho_encode(comp: Composition) -> Word:
    """Encode ``[s1,...,sk]`` as the word ``x0^(s1-1) x1 ... x0^(sk-1) x1``.

    Only defined for entries >= 1; the image always ends with ``x1``.
    """
    letters = []
    for e in comp:
        if e < 1:
            raise ValueError(f"word encoding needs entries >= 1, got {e}")
        letters.extend([X0] * (e - 1))
        letters.append(X1)
    return tuple(letters)


def rho_decode(word: Word) -> Composition:
    """Inverse of :func:`rho_encode`; the word must be empty or end in x1."""
    if word and word[-1] != X1:
        raise ValueError("only words ending in x1 encode a composition")
    entries = []
    run = 0
    for letter in word:
        if letter == X0:
            run += 1
        elif letter == X1:
            entries.append(run + 1)
            run = 0
        else:
            raise ValueError(f"letters must be 0 or 1, got {letter!r}")
    return tuple(entries)


def word_to_str(word: Word) -> str:
    return "".join(str(letter) for letter in word)


def word_from_str(text: str) -> Word:
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"words are strings over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def _interleave(a, b, merge):
    """The interleavings of the tuples ``a`` and ``b`` that keep the order of
    each, by multiplicity; with ``merge`` a step may also take both heads as
    their sum.  The table over suffix pairs is filled from the ends inward,
    keeping one row, so nothing recurses; both products are commutative, so
    the row runs along the shorter factor."""
    if len(a) < len(b):
        a, b = b, a
    below = [{b[j:]: 1} for j in range(len(b) + 1)]
    for i in range(len(a) - 1, -1, -1):
        row = [None] * len(b) + [{a[i:]: 1}]
        for j in range(len(b) - 1, -1, -1):
            steps = [(a[i], below[j]), (b[j], row[j + 1])]
            if merge:
                steps.append((a[i] + b[j], below[j + 1]))
            acc: dict = {}
            for head, sub in steps:
                for w, c in sub.items():
                    key = (head,) + w
                    acc[key] = acc.get(key, 0) + c
            row[j] = acc
        below = row
    return below[0]


def word_shuffle(u: Word, v: Word) -> dict:
    """Classical shuffle ``a w1 x b w2 = a(w1 x b w2) + b(a w1 x w2)``, as a
    map word -> integer multiplicity.  Kept independent of the composition
    engine so it can serve as an oracle for it."""
    return _interleave(tuple(u), tuple(v), False)


def stuffle(a: Composition, b: Composition) -> LinComb:
    """Quasi-shuffle product: interleave entries, allowing pairwise merges.

    ``[s1,s'] * [t1,t'] = [s1, s'*[t1,t']] + [t1, [s1,s']*t'] + [s1+t1, s'*t']``
    with the unit as identity, applied verbatim at every integer entry.
    """
    a = composition(a)
    b = composition(b)
    return LinComb._from_clean(_interleave(a, b, True))

"""The extended shuffle product on integer compositions and Chen symbols.

The product is total on all integer compositions.  ``J`` decrements the
first entry and ``I`` increments it; the product is the unique one for which
the unit is a two-sided identity, zero-prefixed factors peel off, ``J`` is a
derivation (the Leibniz rule ``J(a x b) = J(a) x b + a x J(b)``) and
positive leading entries obey the weight-zero Rota-Baxter shape
``a x b = I(a x J(b)) + I(J(a) x b)``.

Write ``a = [s1,a']``, ``b = [t1,b']``, ``m = -s1`` and ``n = -t1``.  The
Leibniz rule and the Rota-Baxter shape each fold into binomial sums over the
leading entries, in three cases.  The zero-peeling rules ``[0,a'] x b =
[0, a' x b]`` and, for ``s1 > 0``, ``a x [0,b'] = [0, a x b']`` are the first
two cases at ``m = 0`` and ``n = 0``, each reduced to its one ``J^0`` term:

* ``s1 <= 0``: ``sum_{k=0..m} (-1)^k C(m,k) J^(m-k) [0, a' x J^k(b)]``.
  This is the Leibniz rule solved for ``a = J^m [0,a']``.
* ``s1 > 0, t1 <= 0``::

      sum_{k=0..min(s1-1,n)} (-1)^k C(n,k) J^(n-k) [0, J^k(a) x b']
    + (-1)^s1 sum_{j=0..n-s1} C(n-1-j, s1-1) J^(n-s1-j) [0, a' x [-j,b']]

  The Leibniz rule solved for ``b = J^n [0,b']`` gives
  ``sum_k (-1)^k C(n,k) J^(n-k) (J^k(a) x [0,b'])``.  Its terms with
  ``k < s1`` peel the zero of ``[0,b']``; those with ``k >= s1`` expand by
  the ``s1 <= 0`` sum into shifts ``J^(n-s1-j)`` that do not depend on ``k``,
  and their binomials sum to the closed form above.  So no two terms cancel
  and no pair of the same depth sum is visited.
* ``s1, t1 > 0``, Euler's decomposition as generalized by Guo and Xie
  ("Explicit double shuffle relations and a generalization of Euler's
  decomposition formula", J. Algebra 2013), which sums the Rota-Baxter
  recursion over its lattice paths down to a zero leading entry::

      sum_{j=1..t1} C(s1-1+t1-j, s1-1) I^(s1+t1-j) [0, a' x [j,b']]
    + sum_{i=1..s1} C(t1-1+s1-i, t1-1) I^(s1+t1-i) [0, [i,a'] x b']

The product is not commutative, so the ``t1 <= 0`` sums are not the
``s1 <= 0`` sum with the factors swapped.  Each sum steps its binomials
from the term before, with one multiplication and one exact division, not
one ``comb`` per term: the two Leibniz rows along the bottom, with the sign
folded in, the other three along the top with the bottom fixed.

Termination: every case needs only pairs whose depth sum is one less, so
the product descends by depth only, and each sum visits a number of pairs
linear in the leading entries.  ``_cases`` sees only nonempty factors and
yields the pairs it needs; ``_product`` answers a unit product (an empty
factor) itself, and drives ``_cases`` on an explicit stack, not the
interpreter's recursion: the stack holds one frame per unit of depth sum at
most, so no recursion limit bounds the depth sum.  Every result term has
depth equal to the sum of the factors' depths, and the restriction to
compositions with all entries >= 1 agrees with the classical word shuffle
pulled back along the encoding ``rho`` (implemented independently below as
an oracle).

One engine serves compositions and Chen symbols.  It works on flat terms of
stride ``r``: a composition ``(s1, s2, ...)`` has ``r = 1``, and a Chen
symbol interleaves each exponent with its label, ``(s1, u1, s2, u2, ...)``,
with ``r = 2``.  The rest of a term is ``a[r:]`` and its first label
``a[1:r]``, empty for a composition; a shifted head keeps its label, and
each zero peeled off a factor keeps that factor's first label.  Basis
products have integer coefficients.  One plain dict, ``_MEMO``, memoizes
them, keyed by both terms and the stride, and ``ext_shuffle`` hands out its
values as they are.  It keeps the product a caller asked for and each
sub-product its build asked for a second time, but never a unit product;
the build keeps the rest in a dict of its own, read after ``_MEMO`` and
dropped when the build ends, as most sub-products are asked for once.  A
map is stored only once complete, so an error raised mid-build leaves no
partial value; threads share ``_MEMO``, each with its own stack and build
dict, and a lost race only recomputes a value.

A sum that may meet keys already stored adds through ``algebra._merge``,
which drops what cancels: the second ``s1, t1 > 0`` sum (its heads are the
first's), the bilinear extension and each ``_interleave`` cell.  The other
sums' heads are distinct, so ``_put``, the hottest loop, just stores.

The word shuffle and the quasi-shuffle (stuffle) share ``_interleave``, which
fills the table over suffix pairs iteratively and so does not recurse.  It
keeps no memo: each call builds and returns a fresh map.
"""

from __future__ import annotations

from math import comb

from .algebra import Composition, LinComb, _merge, composition

Word = tuple
"""A word over the two-letter alphabet, as a tuple of 0/1 integers."""

X0, X1 = 0, 1


# ---------------------------------------------------------------------------
# extended shuffle product


def _put(out, coef, head, terms):
    """Store ``coef * (head + term)`` for each term in ``out``; the new keys
    must not be in ``out`` yet, so no lookup or zero test is needed."""
    for term, c in terms.items():
        out[head + term] = coef * c


def _cases(a, b, r):
    """The three sign cases for two nonempty flat terms of stride ``r``, whose
    ``J^0`` terms are the zero-peeling rules, as a generator: it yields each
    sub-product it needs as ``(x, y, r)``, is sent that product's map, and
    returns its own map, which is never mutated once built.  Each sum steps
    its binomials from the term before: the two Leibniz rows along the
    bottom, the other three along the top, started one step early from
    ``C(top, bottom)`` so that no step divides by zero."""
    s1, t1 = a[0], b[0]
    left, left_lab = a[r:], a[1:r]
    right, right_lab = b[r:], b[1:r]
    out = {}
    # every sub-product below has a smaller depth sum (the termination
    # measure); within each sum the heads differ, and so do the keys
    if s1 <= 0:
        m, ck = -s1, 1
        for k in range(m + 1):
            _put(out, ck, (k - m,) + left_lab, (yield left, (t1 - k,) + b[1:], r))
            ck = -ck * (m - k) // (k + 1)
        return out
    if t1 <= 0:
        # the first sum's heads are below s1 - n, the second's are not
        n, ck = -t1, 1
        for k in range(min(s1 - 1, n) + 1):
            _put(out, ck, (k - n,) + right_lab, (yield (s1 - k,) + a[1:], right, r))
            ck = -ck * (n - k) // (k + 1)
        cj = (-1) ** s1 * comb(n, s1 - 1)
        for j in range(n - s1 + 1):
            cj = cj * (n - j - s1 + 1) // (n - j)
            _put(out, cj, (s1 + j - n,) + left_lab, (yield left, (-j,) + b[1:], r))
        return out
    w = s1 + t1
    cj = comb(w - 1, s1 - 1)
    for j in range(1, t1 + 1):
        cj = cj * (w - j - s1 + 1) // (w - j)
        _put(out, cj, (w - j,) + left_lab, (yield left, (j,) + b[1:], r))
    # the two sums share heads, so at stride 1 their terms merge
    ci = comb(w - 1, t1 - 1)
    for i in range(1, s1 + 1):
        ci = ci * (w - i - t1 + 1) // (w - i)
        head = (w - i,) + right_lab
        sub = yield (i,) + a[1:], right, r
        _merge(out, ((head + term, ci * c) for term, c in sub.items()))
    return out


_MEMO: dict = {}
"""The basis products callers asked for, and the sub-products a build asked
for twice, keyed by ``(a, b, r)``; never a unit product."""


def _product(a, b, r):
    """Product of two flat terms of stride ``r``: a unit product answered at
    once, else from ``_MEMO`` or built by driving ``_cases`` on an explicit
    stack, so no depth sum is too deep.  A needed unit product is answered
    the same way, without a frame or a memo lookup, and is never stored."""
    if not a or not b:
        return {a or b: 1}
    done = _MEMO.get((a, b, r))
    if done is not None:
        return done
    built = {}
    stack = [((a, b, r), _cases(a, b, r))]
    while stack:
        key, frame = stack[-1]
        try:
            need = frame.send(done)
        except StopIteration as stop:
            stack.pop()
            done = built[key] = stop.value
            continue
        x, y, _ = need
        if not x or not y:
            done = {x or y: 1}
            continue
        done = _MEMO.get(need)
        if done is None:
            done = built.get(need)
            if done is None:
                stack.append((need, _cases(*need)))  # started by sending it None
            else:
                _MEMO[need] = done  # asked for a second time
    _MEMO[a, b, r] = done
    return done


def ext_shuffle(a: Composition, b: Composition) -> LinComb:
    """Extended shuffle product of two basis compositions."""
    a = composition(a)
    b = composition(b)
    return LinComb._from_clean(_product(a, b, 1))


def ext_shuffle_lin(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of :func:`ext_shuffle` to linear combinations."""
    acc: dict = {}
    for ta, ca in x.items():
        for tb, cb in y.items():
            c = ca * cb
            _merge(acc, ((comp, c * k) for comp, k in _product(ta, tb, 1).items()))
    return LinComb._from_clean(acc)


def is_leading_positive(x: LinComb) -> bool:
    """Whether every term has depth >= 1 and a positive first entry.

    Leading-positive combinations are closed under the product; the zero
    combination is vacuously leading positive.
    """
    return all(comp and comp[0] > 0 for comp, _ in x.items())


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
            row[j] = _merge({}, (((h,) + w, c) for h, sub in steps for w, c in sub.items()))
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

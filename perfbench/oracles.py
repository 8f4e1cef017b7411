"""Reference computations that share no code with the package.

Every function here works on plain tuples, dicts and ``Fraction``s.  None of
them calls the five-case product recursion or the numpy series sweep, so an
agreement between the package and these functions is evidence, not an echo.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from math import comb

CLOSED_FORMS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "closed_forms.json")


# ---------------------------------------------------------------------------
# compositions


def is_convergent(comp) -> bool:
    """``w_j > j`` for every partial weight, restated from the definition."""
    return all(sum(comp[:j]) > j for j in range(1, len(comp) + 1))


def convergent_basis(max_depth: int, lo: int, hi: int) -> set:
    """Every convergent composition of depth 1..max_depth with entries in lo..hi."""
    return {
        entries
        for d in range(1, max_depth + 1)
        for entries in itertools.product(range(lo, hi + 1), repeat=d)
        if is_convergent(entries)
    }


def first_entry_shift(terms: dict, delta: int) -> dict:
    """Apply ``I`` (delta=+1) or ``J`` (delta=-1) to a term dict; J kills the unit."""
    return {(c[0] + delta,) + c[1:]: k for c, k in terms.items() if c}


def add_terms(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for term, coef in d.items():
            out[term] = out.get(term, 0) + coef
    return {t: c for t, c in out.items() if c}


def project_labels(terms: dict) -> dict:
    """Drop the label row of ``((exponents, labels) -> coef)`` terms."""
    out: dict = {}
    for (exps, _labels), coef in terms.items():
        out[exps] = out.get(exps, 0) + coef
    return {t: c for t, c in out.items() if c}


def is_interleaving(row, left, right) -> bool:
    """Whether ``row`` is a shuffle of the rows ``left`` and ``right``."""
    if len(row) != len(left) + len(right):
        return False
    left_set = set(left)
    return (
        tuple(x for x in row if x in left_set) == tuple(left)
        and tuple(x for x in row if x not in left_set) == tuple(right)
    )


# ---------------------------------------------------------------------------
# the classical word shuffle through the x0/x1 encoding


def rho(comp) -> tuple:
    """``[s1,...,sk] -> x0^(s1-1) x1 ... x0^(sk-1) x1`` with letters 0 and 1."""
    word = []
    for e in comp:
        if e < 1:
            raise ValueError(f"the word encoding needs entries >= 1, got {comp}")
        word.extend([0] * (e - 1) + [1])
    return tuple(word)


def rho_inverse(word) -> tuple:
    entries, run = [], 0
    for letter in word:
        if letter:
            entries.append(run + 1)
            run = 0
        else:
            run += 1
    if run:
        raise ValueError("a word that encodes a composition ends in x1")
    return tuple(entries)


def word_shuffle_product(a, b) -> dict:
    """Shuffle of ``rho(a)`` and ``rho(b)`` pulled back to compositions.

    Counts interleavings by a table over suffix pairs of the two words.
    """
    u, v = rho(a), rho(b)
    table = {(len(u), len(v)): {(): 1}}
    for i in range(len(u), -1, -1):
        for j in range(len(v), -1, -1):
            if i == len(u) and j == len(v):
                continue
            acc: dict = {}
            if i < len(u):
                for w, c in table[i + 1, j].items():
                    key = (u[i],) + w
                    acc[key] = acc.get(key, 0) + c
            if j < len(v):
                for w, c in table[i, j + 1].items():
                    key = (v[j],) + w
                    acc[key] = acc.get(key, 0) + c
            table[i, j] = acc
    return {rho_inverse(w): c for w, c in table[0, 0].items()}


def interleaving_count(a, b) -> int:
    """``C(wa+wb, wa)``: the coefficient sum of any all-positive product."""
    wa, wb = sum(a), sum(b)
    return comb(wa + wb, wa)


# ---------------------------------------------------------------------------
# quasi-shuffle


def stuffle_product(a, b) -> dict:
    """Quasi-shuffle of entry lists, by a table over suffix pairs."""
    table: dict = {}
    for i in range(len(a), -1, -1):
        for j in range(len(b), -1, -1):
            if i == len(a):
                table[i, j] = {tuple(b[j:]): 1}
                continue
            if j == len(b):
                table[i, j] = {tuple(a[i:]): 1}
                continue
            acc: dict = {}
            for head, sub in (
                (a[i], table[i + 1, j]),
                (b[j], table[i, j + 1]),
                (a[i] + b[j], table[i + 1, j + 1]),
            ):
                for w, c in sub.items():
                    key = (head,) + w
                    acc[key] = acc.get(key, 0) + c
            table[i, j] = acc
    return table[0, 0]


# ---------------------------------------------------------------------------
# Chen fractions


def chen_fraction_value(exponents, indices, point) -> Fraction:
    """``prod_j (x_{i_j} + ... + x_{i_k}) ** (-s_j)`` in exact arithmetic."""
    value = Fraction(1)
    for j, s in enumerate(exponents):
        linear = sum((Fraction(point[i]) for i in indices[j:]), Fraction(0))
        value *= linear ** (-s)
    return value


# ---------------------------------------------------------------------------
# nested sums


def exact_partial_sum(comp, cutoff: int) -> Fraction:
    """``sum over cutoff >= n1 > ... > nk >= 1 of prod n_j ** -s_j``, exactly.

    ``inner[n]`` holds the sum over the entries after position j with the
    outermost index below ``n``; the loop works from the innermost entry out.
    """
    inner = [Fraction(1)] * (cutoff + 2)
    for s in reversed(comp):
        nxt = [Fraction(0)] * (cutoff + 2)
        running = Fraction(0)
        for n in range(1, cutoff + 1):
            running += Fraction(n) ** (-s) * inner[n]
            nxt[n + 1] = running
        inner = nxt
    return inner[cutoff + 1]


def load_closed_forms() -> dict:
    """``{composition tuple: (Fraction value, formula)}`` from the committed table."""
    with open(CLOSED_FORMS_PATH) as fh:
        table = json.load(fh)
    return {
        tuple(row["composition"]): (Fraction(row["value"]), row["formula"])
        for row in table["points"]
    }

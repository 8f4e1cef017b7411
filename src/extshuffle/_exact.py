"""Enclosures of convergent nested zeta series in integer arithmetic.

``reduce`` is the Faulhaber reduction ``R``.  With ``s_j = -m <= 0`` the first
entry below 1 (``j >= 2`` by convergence), the sum of ``n_j**m`` over
``n_{j+1} < n_j < n_{j-1}`` is ``P_m(n_{j-1}) - S_m(n_{j+1})``, with ``S_m``
Faulhaber's polynomial (``B_1 = +1/2``) and ``P_m(x) = S_m(x) - x**m``: a
monomial ``x**r`` deletes ``s_j`` and lowers ``s_{j-1}`` (of ``P_m``) or
``s_{j+1}`` (of ``-S_m``) by ``r``.  Each step keeps every truncated sum (both
sides are 0 when no ``n_j`` fits), and repeating it ends in admissible
compositions.  The mass, the sum of ``1 - s`` over entries ``s <= 0``, never
grows, so each step's denominator divides that of ``S_0 .. S_{mass-1}``.

``holder`` is the Hölder convolution (Borwein, Bradley, Broadhurst and
Lisonek, Trans. AMS 2001): for the word ``a_1 ... a_w`` of an admissible
``t``, ``zeta(t) = sum over i of L(dual(a_i ... a_1)) * L(a_{i+1} ... a_w)``,
``L`` of the word of ``(m_1, ..., m_r)`` being ``sum over n_1 > ... > n_r of
2**-n_1 prod n_i**-m_i``, summed in fixed point, times ``2**p``, to ``n_1 <=
N = p + 1``.  In units of ``2**-p``: an inner sum at ``n`` is at most
``prod over i < n of (1 + 1/i) = n`` and every ``L`` below 1; a depth-``j``
inner list is short by at most ``j (n - 1)`` (one floor per term, the
shortfall below divided by ``n**m >= n``), so an ``L`` is short by under
``N + j`` plus a tail of at most ``2**-N``; the products, each short by at
most ``2 (N + w) 2**p``, and the final shift give ``zeta(t) * 2**p`` in
``[V, V + 2w(N + w) + 1]``.  A divisor above ``N * 2**p`` gives a quotient
of 0, so one power of two stands in for it however large the entry.
"""

from __future__ import annotations

import threading
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import floordiv, mul

from .algebra import _clip, format_composition as _fmt
from .shuffle import X1, rho_decode, rho_encode

_MASS_CAP = 100  # the largest mass reduce takes
_SIZE_CAP = 1 << 20  # the largest product of 2m + 3, a step's branching, over the entries -m <= 0
_STEP_BITS = 8  # precisions are multiples of this, so compositions share more of them

# the kept values; a lost race on a dict only computes an entry twice, and
# _LOCK guards the lists that grow in place
_LOCK = threading.Lock()
_BERNOULLI = [Fraction(1)]  # B_0, B_1 = +1/2, ... so far
_PARTS: dict = {}  # reduce's expansions by part, False where one reaches its first entry
_VALUES: dict = {}  # (t, p) -> holder(t, p)
_SUFFIXES: dict = {}  # p -> {suffix: (inner sums, [L of first entry 1, 2, ...], suffix values)}
_POWERS: dict = {}  # (p, shifted) -> {e: _divisors}
_PRECISIONS: dict = {}  # (tol, D, sum of |coef|, weight) -> p


def check_budget(comp):
    """``ValueError`` if ``comp``'s nonpositive entries pass ``reduce``'s fixed budget."""
    mass, size = 0, 1
    for s in comp:
        if s <= 0:
            mass, size = mass + 1 - s, size * (3 - 2 * s)
            if mass > _MASS_CAP or size > _SIZE_CAP:
                raise ValueError(
                    f"composition {_clip(_fmt(comp))} is beyond the reduction budget: its entries s <= 0 "
                    f"sum 1 - s past {_MASS_CAP} or multiply 3 - 2s past 2**20"
                )


@lru_cache(maxsize=None)
def _faulhaber(m):
    """``(d, P, S)``: ``d`` the least common denominator of ``S_m``, and the
    ``(r, coefficient of x**r)`` pairs of ``d * P_m`` and ``d * S_m``."""
    with _LOCK:
        for i in range(len(_BERNOULLI), m + 1):  # sum over k <= i of C(i + 1, k) B_k = i + 1
            _BERNOULLI.append((i + 1 - sum(comb(i + 1, k) * b for k, b in enumerate(_BERNOULLI))) / (i + 1))
    s = {m + 1 - k: comb(m + 1, k) * _BERNOULLI[k] / (m + 1) for k in range(m + 1)}
    p = {**s, m: s.get(m, 0) - 1}
    d = lcm(*(c.denominator for c in s.values()))
    return d, tuple((r, int(c * d)) for r, c in p.items() if c), tuple((r, int(c * d)) for r, c in s.items() if c)


def reduce(comp):
    """``R(comp)`` of a convergent ``comp`` within the budget: ``(D, terms)``,
    its series as ``sum of coef * zeta(t) / D`` over the ``(t, coef)`` of
    ``terms``, in lowest terms.  No step touches an entry left of ``s_{j-1}``
    before a term's entry there drops below 1, so a part from ``s_{j-1}``,
    or from up to two entries further left, is expanded on its own, kept in
    ``_PARTS``, and shared by every prefix; if each reaches its own first
    entry, ``comp`` is expanded whole."""
    j = next((i for i, s in enumerate(comp) if s <= 0), len(comp))
    for i in [*range(j - 1, max(j - 4, 0), -1), 0] if j < len(comp) else ():
        found = _PARTS.get(comp[i:])
        if found is None:
            found = _PARTS[comp[i:]] = _expand(comp[i:])
        if found:
            return found[0], tuple((comp[:i] + t, c) for t, c in found[1])
    return 1, ((comp, 1),)


def _expand(comp):
    """``R``'s steps on ``comp``, its terms merged depth by depth: ``(D,
    terms)``, or ``False`` if a term's first entry drops below 1."""
    mass = sum(1 - s for s in comp if s <= 0)
    scale = lcm(*(_faulhaber(m)[0] for m in range(mass))) ** (len(comp) - 1)
    level, out = {comp: scale}, {}
    while level:
        below = {}
        get = below.get
        for c, coef in level.items():
            j = next((i for i, s in enumerate(c) if s <= 0), None)
            if j is None:
                out[c] = out.get(c, 0) + coef
                continue
            if not j:
                return False
            den, ps, ss = _faulhaber(-c[j])
            q = coef // den
            head, prev, rest = c[: j - 1], c[j - 1], c[j + 1 :]
            for r, a in ps:
                t = head + (prev - r,) + rest
                below[t] = get(t, 0) + q * a
            if rest:
                lead, nxt, tail = c[:j], rest[0], rest[1:]
                for r, a in ss:
                    t = lead + (nxt - r,) + tail
                    below[t] = get(t, 0) - q * a
        level = below
    g = gcd(scale, *out.values())
    return scale // g, tuple((t, v // g) for t, v in out.items() if v)


def dual(t):
    """The composition of ``t``'s word reversed with ``x0`` and ``x1`` swapped."""
    return rho_decode(tuple(X1 - a for a in reversed(rho_encode(t))))


def _divisors(e, shifted, p):
    """``n**e``, times ``2**n`` if ``shifted``, for ``n = 1 .. p + 1``, with
    each one above ``N * 2**p`` replaced by ``2**top``, ``top = p + len(N)``;
    kept in ``_POWERS[p, shifted]`` by ``e <= top``, past which only ``n =
    1``'s divisor is below the cap."""
    top = p + (p + 1).bit_length()
    found = _POWERS.setdefault((p, shifted), {})[e] = [
        1 << top if e * (n.bit_length() - 1) + shifted * n >= top else n**e << shifted * n for n in range(1, p + 2)
    ]
    return found


def _suffix_values(comp, p):
    """The ``L`` of every suffix of ``comp``'s word, times ``2**p`` and summed
    to ``n_1 <= N = p + 1``, by suffix length from 0 to the weight.  Every
    proper suffix under ``N`` deep is kept, and a walk starts from the
    longest kept; a suffix ``N`` or more deep has no ``n_1 <= N``."""
    n_terms, top = p + 1, p + (p + 1).bit_length()  # first entries past top divide as top's
    table = _SUFFIXES.get(p)
    if table is None:
        table = _SUFFIXES[p] = {(): ([1 << p] * n_terms, [], [1 << p])}
    shifted, plain = _POWERS.setdefault((p, 1), {}), _POWERS.setdefault((p, 0), {})
    k = len(comp)
    i = max(1, k + 1 - n_terms)
    while (node := table.get(comp[i:])) is None:
        i += 1
    while i:
        i -= 1
        inner, ls, values = node
        s = comp[i]
        if ls is None:
            return values + [0] * sum(comp[: i + 1])
        for e in range(len(ls) + 1, min(s, top) + 1):
            ls.append(sum(map(floordiv, inner, shifted.get(e) or _divisors(e, 1, p))))
        values = values + ls[:s] + ls[-1:] * (s - top)
        node = None, None, values
        if i and k - i < n_terms:
            e = min(s, top)
            below = (array("Q") if p <= 56 else [])  # N * 2**p < 2**64: eight bytes a sum
            below.extend(accumulate(map(floordiv, inner, plain.get(e) or _divisors(e, 0, p)), initial=0))
            below.pop()
            node = table[comp[i:]] = below, [], values
    return node[2]


def holder(t, p):
    """``V`` with ``zeta(t) * 2**p`` in ``[V, V + 2w(p + 1 + w) + 1]``, ``t``
    admissible of weight ``w``; the same for ``t`` and its dual."""
    value = _VALUES.get((t, p))
    if value is None:
        other = dual(t)
        with _LOCK:
            mine, theirs = _suffix_values(t, p), _suffix_values(other, p)
        value = _VALUES[t, p] = _VALUES[other, p] = sum(map(mul, theirs, reversed(mine))) >> p
    return value


def enclose(comp, tol):
    """``(center, radius, scale, N)``: the series of ``comp`` lies within
    ``radius / scale <= tol / 8`` of ``center / scale``, by Hölder sums of
    ``R(comp)`` to ``n_1 <= N``, at the least multiple ``p`` of ``_STEP_BITS``
    with ``sum of |coef| * e <= tol / 4 * D * 2**p``."""
    den, terms = reduce(comp)
    total = signed = w = 0
    for t, c in terms:
        total, signed, w = total + abs(c), signed + c, max(w, sum(t))
    key = tol, den, total, w
    p = _PRECISIONS.get(key)
    if p is None:
        a, b = tol.as_integer_ratio()
        p = 0
        while 4 * total * (2 * w * (p + 1 + w) + 1) * b > (a * den) << p:
            p += _STEP_BITS
        _PRECISIONS[key] = p
    e = 2 * w * (p + 1 + w) + 1
    low = sum(c * holder(t, p) for t, c in terms)
    return 2 * low + signed * e, total * e, den << (p + 1), p + 1

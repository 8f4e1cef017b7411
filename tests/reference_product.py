"""Reference oracle: the unit-step five-case recursion for the extended shuffle.

This is the product's defining recursion applied one unit of a leading entry
per call, kept independent of the closed-form engine in
``extshuffle.shuffle``.  It works on ``(exponents, labels)`` pairs like the
engine does, so it covers compositions (empty label rows) and Chen symbols
alike.  Its recursion depth grows with the entries, so use it on small ones
only (a few dozen at most).

For ``a = [s1,a']`` and ``b = [t1,b']``:

* ``s1 == 0``: ``[0, a' x b]``.
* ``s1 > 0, t1 == 0``: ``[0, a x b']``.
* ``s1, t1 > 0``: ``I(a x J(b)) + I(J(a) x b)``.
* ``s1 > 0, t1 < 0``: ``J(a x I(b)) - J(a) x I(b)``, the Leibniz rule.
* ``s1 < 0``: ``J(I(a) x b) - I(a) x J(b)``, the Leibniz rule on the left.
"""

_cache: dict = {}


def reference_product(a, b):
    """Map ``(exponents, labels) -> coefficient`` for two such pairs."""
    try:
        return _cache[a, b]
    except KeyError:
        pass
    result = _compute(a, b)
    _cache[a, b] = result
    return result


def reference_shuffle(a, b):
    """The oracle on two compositions: a map composition -> coefficient."""
    return {e: c for (e, _), c in reference_product((a, ()), (b, ())).items()}


def _shift_first(d, delta):
    return {((e[0] + delta,) + e[1:], l): c for (e, l), c in d.items()}


def _add_into(acc, other, sign=1):
    for term, coef in other.items():
        c = acc.get(term, 0) + sign * coef
        if c:
            acc[term] = c
        else:
            del acc[term]
    return acc


def _compute(a, b):
    (s, u), (t, v) = a, b
    if not s:
        return {b: 1}
    if not t:
        return {a: 1}
    s1, t1 = s[0], t[0]
    if s1 == 0:
        sub = reference_product((s[1:], u[1:]), b)
        return {((0,) + e, u[:1] + l): c for (e, l), c in sub.items()}
    if s1 > 0:
        if t1 == 0:
            sub = reference_product(a, (t[1:], v[1:]))
            return {((0,) + e, v[:1] + l): c for (e, l), c in sub.items()}
        if t1 > 0:
            acc = dict(reference_product(a, ((t1 - 1,) + t[1:], v)))
            _add_into(acc, reference_product(((s1 - 1,) + s[1:], u), b))
            return _shift_first(acc, +1)
        # t1 < 0
        acc = _shift_first(reference_product(a, ((t1 + 1,) + t[1:], v)), -1)
        return _add_into(
            acc, reference_product(((s1 - 1,) + s[1:], u), ((t1 + 1,) + t[1:], v)), -1
        )
    # s1 < 0
    acc = _shift_first(reference_product(((s1 + 1,) + s[1:], u), b), -1)
    return _add_into(
        acc, reference_product(((s1 + 1,) + s[1:], u), ((t1 - 1,) + t[1:], v)), -1
    )

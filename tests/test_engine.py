"""The closed-form product engine against independent references.

The references are the unit-step five-case recursion (``reference_product``),
the classical word shuffle, Euler's decomposition formula and the exact
values of Chen fractions.  Large entries are where the engine departs from
the unit-step recursion: it descends by depth only.
"""

import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import compositions
from reference_product import reference_product, reference_shuffle
from extshuffle import (
    ChenFraction,
    ChenSymbol,
    LinComb,
    SymbolLinComb,
    UNIT,
    evaluate,
    ext_shuffle,
    ext_shuffle_lin,
    fraction_product,
    op_J,
    phi_project,
    rho_encode,
    symbol_product,
    word_shuffle,
)
from extshuffle import shuffle
from extshuffle.shuffle import _product
from test_symbols import _is_shuffle_of, symbol_pairs


def terms(x) -> dict:
    return dict(x.items())


def lift(a, b):
    """``a`` and ``b`` as independent Chen symbols, labels 1.. then onwards."""
    return (
        ChenSymbol(a, tuple(range(1, len(a) + 1))),
        ChenSymbol(b, tuple(range(len(a) + 1, len(a) + len(b) + 1))),
    )


def euler_decomposition(s, t):
    """``[s] x [t]`` for ``s, t >= 1`` by Euler's formula
    ``sum_j (C(j-1, s-1) + C(j-1, t-1)) [j, s+t-j]``."""
    out = {}
    for j in range(1, s + t):
        c = comb(j - 1, s - 1) + comb(j - 1, t - 1)
        if c:
            out[(j, s + t - j)] = c
    return out


# ---------------------------------------------------------------------------
# agreement with the unit-step recursion and the word shuffle, small entries


@given(compositions(-6, 6, 3), compositions(-6, 6, 3))
def test_engine_matches_reference_recursion(a, b):
    assert terms(ext_shuffle(a, b)) == reference_shuffle(a, b)


@given(compositions(1, 6, 3), compositions(1, 6, 3))
def test_engine_matches_word_shuffle(a, b):
    assume(sum(a) + sum(b) <= 18)
    encoded = {rho_encode(comp): c for comp, c in ext_shuffle(a, b).items()}
    assert encoded == word_shuffle(rho_encode(a), rho_encode(b))


@given(symbol_pairs(min_entry=-6, max_entry=6))
def test_symbol_engine_matches_reference_recursion(pair):
    a, b = pair
    result = symbol_product(a, b)
    expected = reference_product((a.exponents, a.labels), (b.exponents, b.labels))
    assert {(sym.exponents, sym.labels): c for sym, c in result.items()} == expected
    assert terms(phi_project(result)) == reference_shuffle(a.exponents, b.exponents)
    for sym in result.support():
        assert _is_shuffle_of(sym.labels, a.labels, b.labels)


@given(symbol_pairs(min_entry=1, max_entry=6))
def test_symbol_engine_projects_onto_word_shuffle(pair):
    a, b = pair
    assume(sum(a.exponents) + sum(b.exponents) <= 18)
    projected = phi_project(symbol_product(a, b))
    encoded = {rho_encode(comp): c for comp, c in projected.items()}
    assert encoded == word_shuffle(rho_encode(a.exponents), rho_encode(b.exponents))


# ---------------------------------------------------------------------------
# the stepped binomial rows at their edges: each sum's first and last term,
# the empty rows, s1 = 1 and t1 = 1, under depth-1 and depth-2 tails


def _row_edge_pairs():
    heads = []
    for s1 in (0, -1, -5):  # the s1 <= 0 row, m = 0, 1 and 5
        heads += [(s1, t1) for t1 in (-2, 0, 1, 3)]
    for s1 in (1, 2, 4):  # the t1 <= 0 rows: n = 0, s1 - 1, s1, s1 + 1 and 6
        heads += [(s1, -n) for n in sorted({0, s1 - 1, s1, s1 + 1, 6})]
    heads += [(1, 1), (1, 5), (5, 1), (3, 4)]  # the two Euler rows
    tails = [((), ()), ((2, -1), ()), ((), (-2, 1)), ((0,), (3, 0))]
    return [((s1,) + ta, (t1,) + tb) for s1, t1 in heads for ta, tb in tails]


@pytest.mark.parametrize("stride", [1, 2])
def test_stepped_rows_match_the_reference_at_their_edges(stride):
    # a cold memo, so every row is stepped here and not read from an earlier
    # product
    with mock.patch.object(shuffle, "_MEMO", {}):
        for a, b in _row_edge_pairs():
            if stride == 1:
                assert terms(ext_shuffle(a, b)) == reference_shuffle(a, b), (a, b)
            else:
                sa, sb = lift(a, b)
                result = {(s.exponents, s.labels): c for s, c in symbol_product(sa, sb).items()}
                assert result == reference_product((a, sa.labels), (b, sb.labels)), (a, b)


def test_a_long_leibniz_row_is_stepped_not_recomputed():
    # 15,001 calls of comb(15000, k), one per term, take seconds; the stepped
    # row takes a fraction of one
    with mock.patch.object(shuffle, "_MEMO", {}):
        start = time.perf_counter()
        product = terms(ext_shuffle((-15000,), (5,)))
        elapsed = time.perf_counter() - start
    assert elapsed < 5, elapsed
    assert list(product) == [(k - 15000, 5 - k) for k in range(15001)]
    for k in random.Random(15000).sample(range(15001), 50) + [0, 1, 7500, 14999, 15000]:
        assert product[k - 15000, 5 - k] == (-1) ** k * comb(15000, k), k


# ---------------------------------------------------------------------------
# laws at depth-1 factors with entries up to 1000

big = st.integers(-1000, 1000)
big_positive = st.integers(1, 1000)


@given(big, big)
def test_depth_additivity_at_large_entries(s, t):
    product = ext_shuffle((s,), (t,))
    assert product
    assert all(len(comp) == 2 for comp in product.support())


@given(big)
def test_unit_laws_at_large_entries(s):
    assert ext_shuffle(UNIT, (s,)) == LinComb.basis((s,))
    assert ext_shuffle((s,), UNIT) == LinComb.basis((s,))
    sym = ChenSymbol((s,), (1,))
    unit = ChenSymbol(UNIT, ())
    assert symbol_product(unit, sym) == SymbolLinComb.basis(sym)
    assert symbol_product(sym, unit) == SymbolLinComb.basis(sym)


@given(big_positive, big_positive)
def test_coefficient_sum_counts_interleavings(s, t):
    assert sum(c for _, c in ext_shuffle((s,), (t,)).items()) == comb(s + t, s)


@given(big_positive, big_positive)
def test_euler_decomposition_at_large_entries(s, t):
    assert terms(ext_shuffle((s,), (t,))) == euler_decomposition(s, t)


@given(big, big)
def test_leibniz_rule_at_large_entries(s, t):
    lhs = op_J(ext_shuffle((s,), (t,)))
    rhs = ext_shuffle((s - 1,), (t,)) + ext_shuffle((s,), (t - 1,))
    assert lhs == rhs


@given(st.integers(-250, 250), st.integers(-250, 250))
def test_symbol_lift_is_pointwise_product_at_large_entries(s, t):
    # an independent semantic check, as Chen fractions evaluate exactly; the
    # exact rationals grow with the entries, hence the smaller range
    fa, fb = ChenFraction((s,), (1,)), ChenFraction((t,), (2,))
    point = {1: Fraction(2, 3), 2: Fraction(5, 7)}
    value = evaluate(fraction_product(fa, fb), point)
    assert value == evaluate(fa, point) * evaluate(fb, point)


# ---------------------------------------------------------------------------
# regressions: these pairs exhausted the unit-step recursion's depth


def test_large_positive_pair():
    assert terms(ext_shuffle((200,), (200,))) == euler_decomposition(200, 200)


def test_large_mixed_sign_pair():
    product = ext_shuffle((1000,), (-1000,))
    assert len(product) == 1001
    assert all(len(comp) == 2 for comp in product.support())
    # the Leibniz rule solved for J^1000 on the right factor
    expected = {(k - 1000, 1000 - k): (-1) ** k * comb(1000, k) for k in range(1001)}
    assert terms(product) == expected
    assert op_J(product) == ext_shuffle((999,), (-1000,)) + ext_shuffle((1000,), (-1001,))


def test_large_pairs_lift_to_symbols_and_fractions():
    point = {1: Fraction(2, 3), 2: Fraction(5, 7)}
    for a, b in [((200,), (200,)), ((1000,), (-1000,))]:
        sa, sb = lift(a, b)
        result = symbol_product(sa, sb)
        assert phi_project(result) == ext_shuffle(a, b)
        for sym in result.support():
            assert _is_shuffle_of(sym.labels, sa.labels, sb.labels)
        # the symbol product is the pointwise product of Chen fractions
        fa, fb = ChenFraction(a, sa.labels), ChenFraction(b, sb.labels)
        assert evaluate(fraction_product(fa, fb), point) == evaluate(fa, point) * evaluate(
            fb, point
        )


def test_large_pairs_stay_bilinear():
    x = LinComb.basis((200,)) + 2 * LinComb.basis((1000,))
    y = LinComb.basis((-1000,))
    assert ext_shuffle_lin(x, y) == ext_shuffle((200,), (-1000,)) + 2 * ext_shuffle(
        (1000,), (-1000,)
    )


def test_shared_memo_under_concurrent_cold_use():
    # compositions and symbols share one memo; threads fill it from cold, on
    # pairs no other test uses, and a lost race may only recompute a value
    pairs = [((7, -8, 2), (-9, 7)), ((-8, 7), (8, -7, 1)), ((9, 0, -7), (7, 8))]
    symbols = [lift(a, b) for a, b in pairs]
    results = [None] * 12

    def worker(slot):
        results[slot] = (
            [terms(ext_shuffle(a, b)) for a, b in pairs],
            [terms(symbol_product(sa, sb)) for sa, sb in reversed(symbols)][::-1],
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    expected = [reference_shuffle(a, b) for a, b in pairs]
    expected_symbols = []
    for sa, sb in symbols:
        raw = reference_product((sa.exponents, sa.labels), (sb.exponents, sb.labels))
        expected_symbols.append({ChenSymbol(e, l): c for (e, l), c in raw.items()})
    for compositions_row, symbols_row in results:
        assert compositions_row == expected
        assert symbols_row == expected_symbols


def test_a_failure_inside_a_build_leaves_only_complete_maps():
    # the 50th store of a cold product (95 in all) raises; the error reaches
    # the caller, the build's own sub-products go with it, and the memo keeps
    # only the maps the build asked for a second time before it, each complete
    code = (
        "from extshuffle import ext_shuffle, shuffle\n"
        "from reference_product import reference_shuffle\n"
        "put, calls = shuffle._put, [0]\n"
        "def failing(*args):\n"
        "    calls[0] += 1\n"
        "    if calls[0] == 50:\n"
        "        raise MemoryError\n"
        "    return put(*args)\n"
        "shuffle._put = failing\n"
        "a, b = (3, -2, 1, 2), (2, -1, 3, -1)\n"
        "try:\n"
        "    ext_shuffle(a, b)\n"
        "except MemoryError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the failure did not reach the caller')\n"
        "shuffle._put = put\n"
        "assert calls == [50] and shuffle._MEMO and (a, b, 1) not in shuffle._MEMO\n"
        "for (x, y, r), stored in list(shuffle._MEMO.items()):\n"
        "    assert r == 1 and stored == reference_shuffle(x, y), (x, y)\n"
        "assert dict(ext_shuffle(a, b).items()) == reference_shuffle(a, b)\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_the_engine_needs_no_recursion():
    # at recursion limit 100 and from a cold memo: the engine drives its three
    # sign cases on an explicit stack, one frame per unit of depth sum, so
    # these depth sums of 2,001 and 151 reach no recursion limit; the zero
    # chain peels each zero as the J^0 term of the s1 <= 0 Leibniz sum
    code = (
        "import sys\n"
        "from extshuffle import ChenSymbol, ext_shuffle, phi_project, symbol_product\n"
        "sys.setrecursionlimit(100)\n"
        "for a, b in [((1,) * 2000, (1,)), ((1,), (1,) * 2000)]:\n"
        "    assert dict(ext_shuffle(a, b).items()) == {(1,) * 2001: 2001}\n"
        "deep = ChenSymbol((1,) * 150, tuple(range(1, 151)))\n"
        "lifted = phi_project(symbol_product(deep, ChenSymbol((1,), (151,))))\n"
        "assert lifted == ext_shuffle((1,) * 150, (1,))\n"
        "assert len(ext_shuffle((200,), (200,))) == 200\n"
        "assert len(ext_shuffle((1000,), (-1000,))) == 1001\n"
        "assert dict(ext_shuffle((0,) * 2000, (0,)).items()) == {(0,) * 2001: 1}\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("stride", [1, 2])
@given(symbol_pairs(min_entry=-6, max_entry=6))
def test_every_need_has_a_depth_sum_one_less(stride, pair):
    # the termination measure: from a cold memo, every frame of the build
    # for x * y at stride r needs only pairs of flat length len(x)+len(y)-r
    sa, sb = pair
    if stride == 1:
        a, b = sa.exponents, sb.exponents
    else:
        a, b = sum(zip(*sa), ()), sum(zip(*sb), ())
    cases, checked = shuffle._cases, [0]

    def measured(x, y, r):
        frame, sent = cases(x, y, r), None
        while True:
            try:
                need = frame.send(sent)
            except StopIteration as stop:
                return stop.value
            u, v, s = need
            assert s == r and len(u) + len(v) == len(x) + len(y) - r, ((x, y), need)
            checked[0] += 1
            sent = yield need

    with mock.patch.object(shuffle, "_cases", measured), mock.patch.object(shuffle, "_MEMO", {}):
        _product(a, b, stride)
    assert bool(checked[0]) == bool(a and b)


def test_word_shuffle_and_stuffle_need_no_recursion_and_little_memory():
    # at recursion limit 100 and, on Linux, a 256 MB address space; a memo
    # of every suffix pair of these inputs, or a table row along the longer
    # factor, needs more
    code = (
        "import sys\n"
        "from extshuffle import stuffle, word_shuffle\n"
        "if sys.platform.startswith('linux'):\n"
        "    import resource\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "sys.setrecursionlimit(100)\n"
        "assert stuffle((1,) * 500, (1,)).coefficient((1,) * 501) == 501\n"
        "assert word_shuffle((0,) * 500, (1,))[(0,) * 500 + (1,)] == 1\n"
        "assert word_shuffle((1,), (0,) * 500)[(0,) * 500 + (1,)] == 1\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


_RETENTION_PRODUCTS = {
    1: (
        "a, b, zero = (3, -2, 1), (2, -1, 2), (0,)\n"
        "def product(x, y):\n"
        "    return dict(ext_shuffle(x, y).items())\n"
        "reference = reference_shuffle\n"
    ),
    2: (
        "a, b, zero = (3, 1, -2, 2, 1, 3), (2, 4, -1, 5, 2, 6), (0, 99)\n"
        "def product(x, y):\n"
        "    got = symbol_product(ChenSymbol(x[::2], x[1::2]), ChenSymbol(y[::2], y[1::2]))\n"
        "    return {sum(zip(t.exponents, t.labels), ()): c for t, c in got.items()}\n"
        "def reference(x, y):\n"
        "    raw = reference_product((x[::2], x[1::2]), (y[::2], y[1::2]))\n"
        "    return {sum(zip(e, l), ()): c for (e, l), c in raw.items()}\n"
    ),
}


@pytest.mark.parametrize("stride", [1, 2])
def test_the_memo_keeps_the_asked_product_and_what_its_build_asked_for_twice(stride):
    # from a fresh memo, one cold product leaves in the memo its own map and
    # each sub-product its build asked for twice; a sub-product asked for once
    # goes with the build, and a later product that needs it builds it again;
    # a unit product is answered by the driver and never stored
    code = (
        "from collections import Counter\n"
        "from extshuffle import ChenSymbol, ext_shuffle, shuffle, symbol_product\n"
        "from reference_product import reference_product, reference_shuffle\n"
        "cases, built, asked = shuffle._cases, [], Counter()\n"
        "def counting(a, b, r):\n"
        "    built.append((a, b, r))\n"
        "    frame, sent = cases(a, b, r), None\n"
        "    while True:\n"
        "        try:\n"
        "            need = frame.send(sent)\n"
        "        except StopIteration as stop:\n"
        "            return stop.value\n"
        "        asked[need] += 1\n"
        "        sent = yield need\n"
        "shuffle._cases = counting\n"
        + _RETENTION_PRODUCTS[stride]
        + f"r = {stride}\n"
        "assert product(a, b) == reference(a, b)\n"
        "twice = {key for key, n in asked.items() if n > 1 and key[0] and key[1]}\n"
        "assert twice and set(shuffle._MEMO) == twice | {(a, b, r)}\n"
        "assert len(built) == len(set(built)) and all(k[0] and k[1] for k in built)\n"
        "once = [k for k in built if k not in shuffle._MEMO]\n"
        "x, y, _ = max(once, key=lambda k: len(k[0]) + len(k[1]))\n"
        "built.clear()\n"
        "assert product(zero + x, y) == reference(zero + x, y)\n"
        "assert (x, y, r) in built and (x, y, r) not in shuffle._MEMO\n"
        "assert product(x, y) == reference(x, y)\n"
        "built.clear()\n"
        "assert product(a, b) == reference(a, b) and built == []\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


_STRIDE_CHECKS = {
    "symbols": (
        "assert phi_project(symbol_product(ChenSymbol((1,), (2,)), ChenSymbol((3,), (1,))))"
        " == ext_shuffle((1,), (3,))\n"
    ),
    "compositions": (
        "words = word_shuffle(rho_encode((1, 2)), rho_encode((3, 1)))\n"
        "expected = {rho_decode(w): c for w, c in words.items()}\n"
        "assert dict(ext_shuffle((1, 2), (3, 1)).items()) == expected\n"
    ),
}


@pytest.mark.parametrize("first", ["symbols", "compositions"])
def test_the_stride_keeps_symbols_and_compositions_apart_in_the_memo(first):
    # the composition (1,2) x (3,1) and the symbol <[1];[2]> x <[3];[1]> are
    # the same flat terms; whichever fills a fresh memo first, the other must
    # not read its entry
    second = "compositions" if first == "symbols" else "symbols"
    code = (
        "from extshuffle import ChenSymbol, ext_shuffle, phi_project, rho_decode,"
        " rho_encode, symbol_product, word_shuffle\n"
        + _STRIDE_CHECKS[first]
        + _STRIDE_CHECKS[second]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_a_product_of_177147_terms_fits_in_256_mb():
    # on Linux, a 256 MB address space; keying the memo by pairs of rows, or
    # keeping a second copy of each result, needs more
    code = (
        "import sys\n"
        "from extshuffle import ext_shuffle\n"
        "if sys.platform.startswith('linux'):\n"
        "    import resource\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "assert len(ext_shuffle((3,) * 6, (3,) * 6).items()) == 177147\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


# ---------------------------------------------------------------------------
# the merge contract: a stored product keeps no zero coefficient


def test_the_shared_head_sums_of_1_m1_squared_cancel_a_term():
    # (1,-1) x (1,-1): both sums of the s1, t1 > 0 case have the head 1, with
    # coefficient C(0,0) = 1; their [1,0,0,-1] terms cancel
    first = _product((-1,), (1, -1), 1)
    second = _product((1, -1), (-1,), 1)
    assert first[(0, 0, -1)] + second[(0, 0, -1)] == 0
    assert _product((1, -1), (1, -1), 1) == {(1, -1, 1, -1): 2, (1, 0, -1, 0): -1}


@given(symbol_pairs(min_entry=-2, max_entry=3))
@example((ChenSymbol((1, -1), (1, 2)), ChenSymbol((1, -1), (3, 4))))
def test_no_stored_product_has_a_zero_coefficient(pair):
    sa, sb = pair
    a, b = sa.exponents, sb.exponents
    assert 0 not in _product(a, b, 1).values()
    flat_a = sum(zip(sa.exponents, sa.labels), ())
    flat_b = sum(zip(sb.exponents, sb.labels), ())
    assert 0 not in _product(flat_a, flat_b, 2).values()

"""The series sweep against its gather-based reference, bit for bit, its
plan of chunks and tries against the set-based chunking, and its workspace:
no stretch-sized allocation once warm, and no sharing between threads."""

import sys
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extshuffle import ext_shuffle, verify_homomorphism, zeta, zeta_truncated
from extshuffle.convergence import is_convergent
from extshuffle.zeta import _BLOCK_BYTES, _PIECE, _START_N, _advance, _evaluate, _grid, _plan, _sweep_trie, _workspace
from reference_sweep import reference_advance, reference_chunks

ZETA_MODULE = sys.modules["extshuffle.zeta"]

# run edges (256), stretch edges (2**16), a last stretch that is no whole number
# of runs, and stretches of 3 runs (767, and 66_049 after a whole one) whose
# run pairs end in a zero run
CUTOFFS = [1, 255, 256, 257, 767, 65_536, 65_537, 66_049, 70_001, 131_073]

# zeta(2,1,1,1) needs 2**18 at 1e-10 and shares its suffixes with members
# that leave the batch at cutoffs from 2**10 to 2**16
MIXED = [(2, 1, 1, 1), (2,), (3,), (4, -1), (3, 1), (2, 1), (2, 1, 1), (3, 1, 1),
         (5, 1, 1, 1), (4, 1, 1, 1), (3, 1, 1, 1)]

# the rows of one chunk at width 1,024, the first stretch of every estimate
FIRST_ROWS = _BLOCK_BYTES // (8 * 1024)

# 100 product terms with 276 trie nodes: more than one chunk at width 1,024
PAIRS = [((2, 1), (3, 0, 2)), ((3, 0, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 0, 3), (3, 2, 0))]
PRODUCTS = sorted({comp for a, b in PAIRS for comp in ext_shuffle(a, b).support()})

# one product of the certifier's region (depth 3, entries -1 to 3): 147
# terms on 383 trie nodes, every one estimated at the first cutoff at 1e-4
CERTIFIER_BATCH = sorted(ext_shuffle((3, 3, 1), (3, 1, 3)).support(), key=lambda c: c[::-1])

convergent = st.lists(st.integers(-1, 5), min_size=1, max_size=5).map(tuple).filter(is_convergent)

small = st.lists(st.integers(-1, 4), min_size=1, max_size=6).map(tuple).filter(is_convergent)


def with_shared_suffixes(comps):
    """``comps`` and their convergent variants with a head of 2 or 3 on a
    proper suffix, sorted by reversed entries: at most 60 of them."""
    more = {(h,) + c[i:] for c in comps for h in (2, 3) for i in range(1, len(c))}
    batch = set(comps) | {c for c in more if is_convergent(c)}
    return sorted(batch, key=lambda c: c[::-1])[:60]


sorted_batches = st.lists(small, min_size=1, max_size=20).map(with_shared_suffixes)


def reference_truncated(comp, cutoff):
    out = np.empty((1, 1))
    reference_advance([comp], 0, cutoff, {}, np.array([cutoff]), out)
    return float(out[0, 0])


def bits(est):
    return est.value.hex(), est.cutoff, est.est_error.hex(), est.converged


def trie_nodes(comps):
    return len({comp[j:] for comp in comps for j in range(len(comp))})


@settings(max_examples=60)
@given(convergent, st.sampled_from(CUTOFFS))
def test_truncated_sum_is_bitwise_the_reference(comp, cutoff):
    if cutoff >= len(comp):
        assert zeta_truncated(comp, cutoff).hex() == reference_truncated(comp, cutoff).hex()


def test_every_cutoff_is_bitwise_the_reference():
    for comp in [(2,), (2, 2, 3, 0), (4, -1), (5, 0, -1), (3, 1, 1, 1)]:
        for cutoff in CUTOFFS:
            if cutoff >= len(comp):
                assert zeta_truncated(comp, cutoff).hex() == reference_truncated(comp, cutoff).hex()


@settings(max_examples=10)
@given(st.lists(convergent, min_size=1, max_size=10))
def test_chunked_sweep_with_carries_is_bitwise_the_reference(comps):
    # more trie nodes than FIRST_ROWS split the batch into chunks at width
    # 1,024; the targets carry the sums across cutoffs and stretches
    comps = sorted(set(comps) | set(PRODUCTS), key=lambda c: c[::-1])
    assert trie_nodes(comps) > FIRST_ROWS
    grid = _grid(1 << 17)
    new, old = np.zeros((len(comps), len(grid))), np.zeros((len(comps), len(grid)))
    carries = old_carries = {}
    pos = 0
    for target in (1 << 10, 1 << 11, 70_001, 1 << 17):
        carries = _advance(comps, pos, target, carries, grid, new)
        old_carries = reference_advance(comps, pos, target, old_carries, grid, old)
        pos = target
        assert new.tobytes() == old.tobytes()
        assert list(carries) == list(old_carries)
        assert np.array_equal(list(carries.values()), list(old_carries.values()))


def evaluate_both(comps, tol, max_n):
    new = _evaluate(comps, tol, max_n)
    with mock.patch.object(ZETA_MODULE, "_advance", reference_advance):
        old = _evaluate(comps, tol, max_n)
    assert new.keys() == old.keys()
    for comp in new:
        assert bits(new[comp]) == bits(old[comp]), comp
    return new


def test_mixed_cutoff_batch_is_bitwise_the_reference():
    found = evaluate_both(MIXED, 1e-10, 1 << 24)
    assert {est.cutoff for est in found.values()} >= {1 << 10, 1 << 18}


@settings(max_examples=10)
@given(st.lists(convergent, min_size=1, max_size=12))
def test_chunked_batch_is_bitwise_the_reference(comps):
    batch = comps + PRODUCTS
    assert trie_nodes(batch) > FIRST_ROWS
    evaluate_both(batch, 1e-8, 1 << 14)


def test_a_certifier_batch_takes_two_chunk_passes_and_matches_each_composition_alone(monkeypatch):
    passes = []

    def counted(trie, *args):
        passes.append(trie[3][-1])  # the chunk's trie nodes
        return _sweep_trie(trie, *args)

    monkeypatch.setattr(ZETA_MODULE, "_sweep_trie", counted)
    found = _evaluate(CERTIFIER_BATCH, 1e-4, 1 << 24)
    monkeypatch.undo()
    assert len(CERTIFIER_BATCH) == 147 and trie_nodes(CERTIFIER_BATCH) == 383
    assert {est.cutoff for est in found.values()} == {1 << 10}
    # 383 nodes fit two chunks of 256 rows; at 64 rows a chunk they take 7
    assert len(passes) <= 2 and sum(passes) >= 383
    for comp in CERTIFIER_BATCH:
        assert bits(_evaluate([comp], 1e-4, 1 << 24)[comp]) == bits(found[comp]), comp


def test_a_warm_sweep_allocates_nothing_the_size_of_a_stretch():
    zeta_truncated((2, 2, 3, 0), 1 << 18)  # grows this thread's workspace
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        zeta_truncated((2, 2, 3, 0), 1 << 18)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 256 * 1024, peak  # one stretch row alone is 512 KiB


def test_a_grown_workspace_keeps_nothing_of_its_old_buffer():
    # the row views kept with the buffer must not keep a replaced buffer alive
    freed = []

    def grow():  # in a thread of its own, whose workspace starts empty
        _workspace(1, 256, 2, 2)
        old = weakref.ref(ZETA_MODULE._LOCAL.buf)
        _, _, sums, _ = _workspace(1, 512, 2, 8)  # another width
        freed.append(old() is None and sums.shape == (8, 256, 2))

    thread = threading.Thread(target=grow)
    thread.start()
    thread.join(timeout=60)
    assert freed == [True]


def in_a_fresh_thread(work):
    """Run ``work`` in a thread of its own, whose workspace starts empty,
    with ``_workspace`` counted: returns each request's ``(width, rows)``,
    each buffer it got that differs from the buffer before it, and the
    length of the buffer it ends with."""
    requests, buffers, final = [], [], []

    def counted(first, width, powers, block):
        views = _workspace(first, width, powers, block)
        requests.append((width, 1 + powers + block))
        buf = ZETA_MODULE._LOCAL.buf
        if not buffers or buffers[-1]() is not buf:  # a replaced buffer is freed, so its ref is dead
            buffers.append(weakref.ref(buf))
        return views

    def run():
        with mock.patch.object(ZETA_MODULE, "_workspace", counted):
            work()
            final.append(len(ZETA_MODULE._LOCAL.buf))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and final
    return requests, buffers, final[0]


# the fixed-cutoff sweeps of a seed-1 series round of the benchmark, in order:
# each asks for more rows of width 2**16 than the one before
SERIES_SWEEPS = [(3,), (2,), (2, 4), (4, 3), (2, 4, 0), (4, -1, 3), (2, 2, 3, 0), (4, 1, 4, 4)]


def test_a_wide_sweep_reserves_its_workspace_once():
    requests, buffers, size = in_a_fresh_thread(lambda: [zeta_truncated(c, 1 << 18) for c in SERIES_SWEEPS])
    assert {width for width, _ in requests} == {_PIECE}
    assert len({rows for _, rows in requests}) > 2  # a buffer of the exact size would be replaced at each
    assert len(buffers) == 1
    # a full block and as large a power table
    assert size == (1 + 2 * (_BLOCK_BYTES // (8 * _PIECE))) * _PIECE >= max(rows for _, rows in requests) * _PIECE


def test_a_first_cutoff_workspace_keeps_its_exact_size():
    def work():
        with mock.patch.dict(ZETA_MODULE._MEMO, clear=True):  # so that both sweep
            assert zeta((3, 1), 1e-3).cutoff == _START_N
            assert verify_homomorphism((2,), (3,), 1e-3).passed

    requests, buffers, size = in_a_fresh_thread(work)
    assert {width for width, _ in requests} == {_START_N} and len(requests) == 2
    assert size == max(rows for _, rows in requests) * _START_N


def test_threads_sweep_in_their_own_workspaces():
    # numpy releases the GIL inside ufuncs, so a workspace shared between
    # threads would mix their rows
    work = [
        ((2, 2, 3, 0), [(2, 1, 1), (3, 2), (4, -1)]),
        ((3, 1, 1), [(5, 0, -1), (2, 3, 1), (3,)]),
        ((4, -1), [(2, 1), (3, 0, 1), (2, 2, 2)]),
        ((2, 1, 2), [(6, -2, 1), (2, 4), (3, 1, 1, 1)]),
    ]
    work = [(comp, sorted(batch, key=lambda c: c[::-1])) for comp, batch in work]

    def run(comp, batch):
        found = _evaluate(batch, 1e-13, 1 << 17)
        return zeta_truncated(comp, 1 << 17).hex(), {c: bits(est) for c, est in found.items()}

    serial = [run(*args) for args in work]
    results = [[] for _ in work]
    start = threading.Barrier(len(work))

    def worker(slot):
        start.wait(timeout=60)
        for _ in range(3):
            results[slot].append(run(*work[slot]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for slot, runs in enumerate(results):
        assert runs == [serial[slot]] * 3, work[slot][0]


@settings(max_examples=60)
@given(sorted_batches, st.sampled_from([1, 4, 16, 64, 256]))
def test_plan_chunks_and_tries_hold_their_suffixes(comps, budget):
    power_row = {-e: e + 1 for e in range(-1, 5)}
    plan = _plan(comps, budget, power_row)
    assert [(start, stop) for start, stop, _, _ in plan] == list(reference_chunks(comps, budget))
    for start, stop, rows, (suffixes, which, parent, bounds) in plan:
        chunk = comps[start:stop]
        height = max(map(len, chunk))
        assert len(set(suffixes)) == len(suffixes)
        assert set(suffixes) == {c[j:] for c in chunk for j in range(len(c))}
        # level by level, each level in the order its suffixes first appear in the chunk
        levels = (c[len(c) - j :] for j in range(1, height + 1) for c in chunk if len(c) >= j)
        assert suffixes == list(dict.fromkeys(levels))
        assert bounds == [sum(len(s) <= j for s in suffixes) for j in range(1, height + 1)]
        for suffix, w, p in zip(suffixes, which, parent):
            assert w == power_row[-suffix[0]]
            if len(suffix) > 1:
                assert suffixes[p] == suffix[1:]
        assert [suffixes[r] for r in rows] == chunk


def test_a_three_stretch_sweep_builds_at_most_two_plans(monkeypatch):
    # two stretches of 2**16 values share one plan; the last, of 5 values, has its own
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _plan(*args)

    monkeypatch.setattr(ZETA_MODULE, "_plan", counted)
    cutoff = 2 * 2**16 + 5
    assert zeta_truncated((3, 1, 2), cutoff).hex() == reference_truncated((3, 1, 2), cutoff).hex()
    assert 1 <= len(calls) <= 2 and len(set(calls)) == len(calls)

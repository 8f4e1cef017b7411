"""The four workloads: seeded inputs, the measured operations, and the checks.

Each ``run_<workload>(E, seed, rnd)`` runs one round in the calling process.
``E`` is the imported package; every call goes through its public names, so
a traced round (see ``spans.py``) sees them.  The measured phase comes first;
the checks against ``oracles`` run after it, untimed.  A wrong result is
appended to ``rnd.wrong`` and fails the run; an operation that fails through
one of the faults in ``FAULTS`` is recorded in ``rnd.failures`` and counted.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np
import oracles

FAULTS = {
    "recursion-depth": "the five-case product recursion descends one unit of an entry per "
    "call, so its depth grows with entry size and passes the interpreter's limit",
    "stopping-rule": "zeta takes the last doubling difference as its error; tails of order "
    "(log N)^j/N need cutoffs beyond the 2^24 cap",
    "error-underbound": "the doubling-difference error estimate underbounds the truncation "
    "error of log-tailed terms, so a true identity is reported as FAIL",
}


# On a shared host the machine's speed drifts by up to 40% within seconds, in
# CPU time as well as wall time.  So a fixed reference kernel is timed
# REF_CALLS times after every stretch of at least REF_EVERY_S of measured work,
# and each stretch is also counted in reference seconds: its time times
# REF_CALL_S over the median kernel time right after it.  Operations per
# reference second cancel the drift as far as it slows the kernel and the
# package alike; the median leaves out the first, cold-cache call.
REF_EVERY_S = 0.05
REF_CALLS = 3
REF_CALL_S = 0.0009  # the kernel's time at this machine's usual speed
_REF_GRID = np.arange(1, 2049, dtype=np.float64)
_REF_BUFFERS = (np.empty_like(_REF_GRID), np.empty_like(_REF_GRID))


def reference_kernel():
    """Fixed work of both kinds the package does: integer arithmetic in the
    interpreter, and numpy sweeps.  Its data fit in 48 KiB and it allocates no
    container or array, so what a round's operations leave in the caches and
    on the heap hardly changes its time."""
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFFF
    terms, sums = _REF_BUFFERS
    for _ in range(24):
        np.multiply(_REF_GRID, _REF_GRID, out=terms)
        np.divide(1.0, terms, out=terms)
        np.cumsum(terms, out=sums)


class Round:
    """Counts and outcomes of one round of one workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list = []
        self.wrong: list = []
        self.figures: dict = {}
        self.phase_s = 0.0  # measured time, the reference kernel's excluded
        self.ref_s = 0.0  # the same time in reference seconds
        self.kernel_s = 0.0
        self.completed = 0
        self.peak_rss_mb = 0.0
        self._mark = None  # end of the last kernel call; None outside the measured phase

    def call(self, op, inputs, fn, *args):
        """Run one measured operation; a ``RecursionError`` is the one fault an
        exception shows."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        try:
            result = fn(*args)
        except RecursionError:
            self.fail(op, inputs, "recursion-depth", "RecursionError")
            result = None
        else:
            self.completed += 1
        self.reference_point()
        return result

    def fail(self, op, inputs, fault, detail):
        self.failures.append({"op": op, "input": repr(inputs), "fault": fault,
                              "reason": FAULTS[fault], "detail": detail})

    def check(self, ok, what):
        if not ok:
            self.wrong.append(what)

    def clock(self) -> float:
        """``perf_counter`` with the reference kernel's time taken out."""
        return perf_counter() - self.kernel_s

    def begin_phase(self) -> float:
        self._mark = perf_counter()
        return self.clock()

    def reference_point(self, force=False):
        """Between operations: time the reference kernel if at least REF_EVERY_S
        of measured work has passed since it last ran."""
        if self._mark is None:
            return
        now = perf_counter()
        stretch = now - self._mark
        if stretch < REF_EVERY_S and not force:
            return
        took = []
        for _ in range(REF_CALLS):
            start = perf_counter()
            reference_kernel()
            took.append(perf_counter() - start)
        self.phase_s += stretch
        self.ref_s += stretch * REF_CALL_S / statistics.median(took)
        self._mark = perf_counter()
        self.kernel_s += self._mark - now

    def end_phase(self):
        """Close the measured phase: its time in seconds and in reference
        seconds, the peak RSS so far, and no more spans (what follows is warm
        repeats and checks)."""
        self.reference_point(force=True)
        self._mark = None
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer is not None:
            self.tracer.paused = True


def _comp(rng, lo, hi, max_depth, min_depth=1):
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(min_depth, max_depth)))


def _entries(rng, lo, hi, depth):
    return tuple(rng.randint(lo, hi) for _ in range(depth))


def _depth_balanced(rng, count, lo, hi, max_depth, arity=2):
    """``count`` tuples of ``arity`` compositions whose depths run through every
    combination of 1..max_depth in a fixed order, with seeded entries.  A
    product's cost grows steeply with its factors' depths, so drawing the depths
    too would swing a round's work from seed to seed."""
    out = []
    for i in range(count):
        depths = [(i // max_depth**k) % max_depth + 1 for k in range(arity)]
        out.append(tuple(_entries(rng, lo, hi, d) for d in depths))
    return out


def _terms(lincomb) -> dict:
    return dict(lincomb.items())


def _labels(start, depth):
    return tuple(range(start, start + depth))


# ---------------------------------------------------------------------------
# algebra: the product engine, the symbol lift and the fraction panel

MIXED_PAIRS = 4000
STUFFLE_PAIRS = 1000
LEIBNIZ_PAIRS = 300
ASSOC_TRIPLES = 150
SYMBOL_PAIRS = 300
FRACTION_PAIRS = 36
WARM_PASSES = 15
WORD_ORACLE_MAX_WEIGHT = 14

# Large entries and deep boxes: recursion depth and memo size grow with them.
BIG_PRODUCTS = [((-150,), (5,)), ((4,), (-120,)), ((3,) * 5, (3,) * 5), ((2,) * 6, (1,) * 6)]
BIG_SYMBOL_PRODUCTS = [((-60,), (5,)), ((3,) * 3, (3,) * 3)]
# Both raise RecursionError today (fault "recursion-depth"), as do their symbol lifts.
RECURSION_PRODUCTS = [((200,), (200,)), ((1000,), (-1000,))]


def algebra_inputs(seed):
    rng = random.Random(seed)
    mixed = _depth_balanced(rng, MIXED_PAIRS, -4, 4, 3)
    return {
        "mixed": mixed,
        "stuffle": mixed[:STUFFLE_PAIRS],
        "leibniz": _depth_balanced(rng, LEIBNIZ_PAIRS, -4, 4, 3),
        "assoc": _depth_balanced(rng, ASSOC_TRIPLES, -2, 2, 2, arity=3),
        "symbol": mixed[:SYMBOL_PAIRS] + BIG_SYMBOL_PRODUCTS + RECURSION_PRODUCTS,
        "fraction": _depth_balanced(rng, FRACTION_PAIRS, -2, 3, 3),
        "big": BIG_PRODUCTS + RECURSION_PRODUCTS,
    }


def run_algebra(E, seed, rnd):
    inp = algebra_inputs(seed)
    call = rnd.call
    out: dict = {}

    def leibniz(a, b):
        unit_a, unit_b = E.LinComb.basis(a), E.LinComb.basis(b)
        product = E.ext_shuffle(a, b)
        right = E.ext_shuffle_lin(E.op_J(unit_a), unit_b) + E.ext_shuffle_lin(unit_a, E.op_J(unit_b))
        return product, E.op_J(product), right

    def assoc(a, b, c):
        left = E.ext_shuffle_lin(E.ext_shuffle(a, b), E.LinComb.basis(c))
        right = E.ext_shuffle_lin(E.LinComb.basis(a), E.ext_shuffle(b, c))
        return left, right

    def fraction_panel(fa, fb):
        product = E.fraction_product(fa, fb)
        panel = E.evaluation_panel(fa.var_indices + fb.var_indices, seed=0)
        return product, panel, [E.evaluate(product, point) for point in panel]

    rnd.begin_phase()
    out["mixed"] = [call("ext_shuffle", (a, b), E.ext_shuffle, a, b) for a, b in inp["mixed"]]
    out["stuffle"] = [call("stuffle", (a, b), E.stuffle, a, b) for a, b in inp["stuffle"]]
    out["big"] = [call("ext_shuffle", (a, b), E.ext_shuffle, a, b) for a, b in inp["big"]]
    out["leibniz"] = [call("leibniz", (a, b), leibniz, a, b) for a, b in inp["leibniz"]]
    out["assoc"] = [call("associativity", t, assoc, *t) for t in inp["assoc"]]
    symbols = [
        (E.ChenSymbol(a, _labels(1, len(a))), E.ChenSymbol(b, _labels(len(a) + 1, len(b))))
        for a, b in inp["symbol"]
    ]
    out["symbol"] = [
        call("symbol_product", (s.exponents, t.exponents), E.symbol_product, s, t)
        for s, t in symbols
    ]
    fractions = [
        (E.ChenFraction(a, _labels(1, len(a))), E.ChenFraction(b, _labels(len(a) + 1, len(b))))
        for a, b in inp["fraction"]
    ]
    out["fraction"] = [
        call("fraction_product", (fa.exponents, fb.exponents), fraction_panel, fa, fb)
        for fa, fb in fractions
    ]
    rnd.end_phase()

    # warm passes: every product is a memo hit; timed as a whole, not counted as operations
    warm = []
    for _ in range(WARM_PASSES):
        start = perf_counter()
        for a, b in inp["mixed"]:
            E.ext_shuffle(a, b)
        warm.append(perf_counter() - start)
    rnd.figures["products_per_s"] = rnd.completed / rnd.phase_s
    rnd.figures["warm_products_per_s"] = len(inp["mixed"]) / statistics.median(warm)

    _check_products(rnd, inp["mixed"] + inp["big"], out["mixed"] + out["big"])
    for (a, b), result in zip(inp["stuffle"], out["stuffle"]):
        rnd.check(_terms(result) == oracles.stuffle_product(a, b), f"stuffle {a} {b}")
    for (a, b), (product, j_product, right) in zip(inp["leibniz"], out["leibniz"]):
        own_left = oracles.first_entry_shift(_terms(product), -1)
        own_right = oracles.add_terms(
            _terms(E.ext_shuffle((a[0] - 1,) + a[1:], b)),
            _terms(E.ext_shuffle(a, (b[0] - 1,) + b[1:])),
        )
        rnd.check(own_left == own_right, f"Leibniz rule on {a} {b}")
        rnd.check(_terms(j_product) == own_left and _terms(right) == own_right,
                  f"op_J / ext_shuffle_lin / LinComb sum on {a} {b}")
    for triple, (left, right) in zip(inp["assoc"], out["assoc"]):
        rnd.check(_terms(left) == _terms(right), f"associativity on {triple}")
    for (a, b), result in zip(inp["symbol"], out["symbol"]):
        if result is None:
            continue
        la, lb = _labels(1, len(a)), _labels(len(a) + 1, len(b))
        raw = {(sym.exponents, sym.labels): c for sym, c in result.items()}
        rnd.check(oracles.project_labels(raw) == _terms(E.ext_shuffle(a, b)),
                  f"phi(symbol_product) != ext_shuffle on {a} {b}")
        rnd.check(all(oracles.is_interleaving(labels, la, lb) for _, labels in raw),
                  f"symbol_product label rows on {a} {b}")
    for (a, b), (product, panel, values) in zip(inp["fraction"], out["fraction"]):
        la, lb = _labels(1, len(a)), _labels(len(a) + 1, len(b))
        for point, value in zip(panel, values):
            expect = oracles.chen_fraction_value(a, la, point) * oracles.chen_fraction_value(b, lb, point)
            rnd.check(value == expect, f"fraction product {a} {b} at {point}")
        rnd.check(len(panel) == 8, f"evaluation panel size for {a} {b}")


def _check_products(rnd, pairs, results):
    for (a, b), result in zip(pairs, results):
        if result is None:
            continue
        terms = _terms(result)
        rnd.check(all(len(c) == len(a) + len(b) for c in terms), f"depth of {a} x {b}")
        if a and b and min(a + b) >= 1:
            rnd.check(sum(terms.values()) == oracles.interleaving_count(a, b),
                      f"coefficient sum of {a} x {b}")
            if sum(a) + sum(b) <= WORD_ORACLE_MAX_WEIGHT:
                rnd.check(terms == oracles.word_shuffle_product(a, b), f"word shuffle {a} x {b}")


# ---------------------------------------------------------------------------
# series: zeta to tolerance on closed-form points, and fixed-cutoff sweeps

SERIES_TOL = 1e-6
SWEEP_CUTOFF = 1 << 18
SWEEPS_PER_DEPTH = 2
EXACT_CUTOFF = 40


def series_inputs(seed):
    rng = random.Random(seed)
    sweeps = []
    for d in range(1, 5):
        found = 0
        while found < SWEEPS_PER_DEPTH:
            comp = _comp(rng, -1, 4, d, min_depth=d)
            if oracles.is_convergent(comp):
                sweeps.append(comp)
                found += 1
    return {"points": oracles.load_closed_forms(), "sweeps": sweeps}


def run_series(E, seed, rnd):
    inp = series_inputs(seed)
    call = rnd.call
    start = rnd.begin_phase()
    estimates = {p: call("zeta", p, E.zeta, p, SERIES_TOL) for p in inp["points"]}
    series_s = rnd.clock() - start
    sweep_start = rnd.clock()
    sweeps = [call("zeta_truncated", c, E.zeta_truncated, c, SWEEP_CUTOFF) for c in inp["sweeps"]]
    sweep_s = rnd.clock() - sweep_start
    rnd.end_phase()
    rnd.figures["series_s"] = series_s
    rnd.figures["level_terms_per_s"] = sum(len(c) * SWEEP_CUTOFF for c in inp["sweeps"]) / sweep_s

    for point, est in estimates.items():
        exact, formula = inp["points"][point]
        error = abs(Fraction(est.value) - exact)
        if est.converged:
            rnd.check(error <= SERIES_TOL, f"zeta{point} = {est.value} is {float(error):.2e} from {formula}")
        else:
            rnd.fail("zeta", point, "stopping-rule",
                     f"converged=False at cutoff {est.cutoff}, est_error {est.est_error:.2e}")
            rnd.check(error < 1e-3, f"unconverged zeta{point} = {est.value} is far from {formula}")
    for comp, big in zip(inp["sweeps"], sweeps):
        small = E.zeta_truncated(comp, EXACT_CUTOFF)
        exact = oracles.exact_partial_sum(comp, EXACT_CUTOFF)
        rnd.check(abs(Fraction(small) - exact) <= exact * Fraction(1, 10**12),
                  f"zeta_truncated{comp} at {EXACT_CUTOFF} = {small}, exact {float(exact)}")
        # every term is positive, so the partial sums grow with the cutoff
        rnd.check(exact < big < float("inf"), f"zeta_truncated{comp} at {SWEEP_CUTOFF} = {big}")


# ---------------------------------------------------------------------------
# certify: double-shuffle relations and the homomorphism over a region

CERT_TOL = 1e-4
CERT_REGION = (3, -1, 3)  # depth <= 3, entries -1..3
SCAN_REGION = (2, -1, 3)  # scanned whole by enumerate_relations
VERIFY_ROUNDS = 3  # each composition outside SLOW is a factor 3 times on each side
RELATION_ROUNDS = 2
FALSE_FAIL_MAX_RATIO = 1.25
# Members whose own series needs a cutoff of 2^18 or more at 1e-4.  Every pair
# among them is always in the round; the seed draws only pairs of the other
# compositions, because which partners a slow member gets would otherwise swing
# the round's work by about 10% from seed to seed.
SLOW = [(2, 1), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 0), (3, 0, 1)]
# The ordered pairs whose verify_homomorphism reports FAIL today (fault
# "error-underbound"); every one involves (2,1,2), (2,1,3) or (3,0,3).
KNOWN_FALSE_FAILS = [
    ((2, 2), (2, 1, 3)), ((2, 3), (2, 1, 3)), ((3, 1), (2, 1, 2)), ((3, 1), (2, 1, 3)),
    ((3, 2), (2, 1, 2)), ((3, 2), (2, 1, 3)), ((3, 3), (2, 1, 2)), ((3, 3), (2, 1, 3)),
    ((2, 1, 2), (3, 1)), ((2, 1, 2), (3, 2)), ((2, 1, 2), (3, 3)), ((2, 1, 2), (2, 1, 2)),
    ((2, 1, 2), (2, 1, 3)), ((2, 1, 2), (3, 0, 3)), ((2, 1, 3), (2, 2)), ((2, 1, 3), (2, 3)),
    ((2, 1, 3), (3, 1)), ((2, 1, 3), (3, 2)), ((2, 1, 3), (3, 3)), ((2, 1, 3), (2, 1, 2)),
    ((2, 1, 3), (2, 1, 3)), ((2, 1, 3), (3, 0, 3)), ((3, 0, 3), (2, 1, 2)), ((3, 0, 3), (2, 1, 3)),
]


def _balanced_pairs(rng, members, rounds, exclude, unordered=False):
    """``rounds`` random matchings of ``members`` with themselves, so every member
    is the left factor ``rounds`` times and the right factor ``rounds`` times.
    No pair repeats (nor, if ``unordered``, its reverse) and none is in ``exclude``."""
    key = frozenset if unordered else tuple
    seen, pairs = {key(p) for p in exclude}, []
    for _ in range(rounds):
        while True:
            matching = list(zip(members, rng.sample(members, len(members))))
            keys = {key(p) for p in matching}
            if len(keys) == len(matching) and not keys & seen:
                break
        seen |= keys
        pairs += matching
    return pairs


def _canonical(c):
    return (len(c), c)


def certify_inputs(seed):
    rng = random.Random(seed)
    basis = sorted(oracles.convergent_basis(*CERT_REGION), key=_canonical)
    fast = [c for c in basis if c not in SLOW]
    slow_pairs = [(a, b) for a in SLOW for b in SLOW]
    relations = [
        tuple(sorted(pair, key=_canonical))
        for pair in _balanced_pairs(rng, fast, RELATION_ROUNDS, exclude=(), unordered=True)
    ]
    return {
        "basis": basis,
        "scan_basis": oracles.convergent_basis(*SCAN_REGION),
        "relations": relations + [(a, b) for a, b in slow_pairs if _canonical(a) <= _canonical(b)],
        "verify": _balanced_pairs(rng, fast, VERIFY_ROUNDS, exclude=KNOWN_FALSE_FAILS)
        + KNOWN_FALSE_FAILS,
    }


def run_certify(E, seed, rnd):
    inp = certify_inputs(seed)
    call = rnd.call
    depth, lo, hi = CERT_REGION
    scan_depth, scan_lo, scan_hi = SCAN_REGION

    def relation(a, b):
        rel = E.double_shuffle_relation(a, b)
        return rel, E.zeta_of_lincomb(rel.difference, CERT_TOL)

    start = rnd.begin_phase()
    basis = call("convergent_compositions", CERT_REGION, E.convergent_compositions, depth, lo, hi)
    scan = call("enumerate_relations", SCAN_REGION, E.enumerate_relations,
                scan_depth, (scan_lo, scan_hi), CERT_TOL)
    relations = [call("relation", pair, relation, *pair) for pair in inp["relations"]]
    relations_s = rnd.clock() - start
    verify_start = rnd.clock()
    reports = [call("verify_homomorphism", pair, E.verify_homomorphism, *pair, CERT_TOL)
               for pair in inp["verify"]]
    verify_s = rnd.clock() - verify_start
    rnd.end_phase()
    # the scan's relations are ops too, though only the whole scan is timed
    rnd.completed += len(scan.relations) - 1
    rnd.figures["relations_per_s"] = (len(scan.relations) + len(relations)) / relations_s
    rnd.figures["verify_pairs_per_s"] = len(reports) / verify_s

    rnd.check(sorted(basis, key=_canonical) == inp["basis"], "convergent basis")
    n_scan = len(inp["scan_basis"])
    rnd.check(len(scan.relations) + len(scan.skipped) == n_scan * (n_scan + 1) // 2,
              "enumerate_relations pair count")
    certified = [(r.a, r.b, r.residual, r.est_error) for r in scan.relations]
    certified += [(rel.a, rel.b, abs(est.value), est.est_error) for rel, est in relations]
    for a, b, residual, est_error in certified:
        rnd.check(residual <= CERT_TOL + est_error,
                  f"relation {a} x {b}: residual {residual:.3e} > tol + {est_error:.3e}")
    for (a, b), (rel, _) in zip(inp["relations"], relations):
        own = oracles.add_terms(oracles.stuffle_product(a, b),
                                {c: -k for c, k in _terms(E.ext_shuffle(a, b)).items()})
        rnd.check(_terms(rel.difference) == own, f"relation difference {a} x {b}")
    for (a, b), report in zip(inp["verify"], reports):
        terms = _terms(report.expansion)
        rnd.check(all(oracles.is_convergent(c) and len(c) == len(a) + len(b) for c in terms),
                  f"expansion of {a} x {b} has a non-convergent or misplaced term")
        if report.passed:
            rnd.check(report.delta < report.tolerance, f"passing report {a} x {b}")
        elif (a, b) in KNOWN_FALSE_FAILS and report.delta <= FALSE_FAIL_MAX_RATIO * report.tolerance:
            rnd.fail("verify_homomorphism", (a, b), "error-underbound",
                     f"delta {report.delta:.3e} exceeds tolerance {report.tolerance:.3e} "
                     f"by {report.delta / report.tolerance - 1:.1%}")
        else:
            rnd.check(False, f"verify {a} x {b}: FAIL, delta {report.delta:.3e} "
                      f"against tolerance {report.tolerance:.3e}")


# ---------------------------------------------------------------------------
# cli: one process per subcommand invocation, run one after another

CLI_ZETA_POINTS = [(2,), (3,), (3, 1), (2, 2), (4, -1), (5, -1)]
CLI_VERIFY_COMPS = [(2,), (3,), (4,), (2, 2), (3, 1), (3, 2)]
CLI_TOL = 1e-3


def _fmt(comp):
    return "[" + ",".join(map(str, comp)) + "]" if comp else "1"


def cli_inputs(seed):
    rng = random.Random(seed)
    a, b = _comp(rng, 1, 3, 2), _comp(rng, 1, 3, 2)
    sa, sb = _comp(rng, -3, 3, 2), _comp(rng, -3, 3, 2)
    fa = _comp(rng, -2, 3, 3)
    fb = _comp(rng, -2, 3, 3)
    point = {i: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for i in range(1, len(fa) + 1)}
    convergent = divergent = None
    while convergent is None or divergent is None:
        comp = _comp(rng, -1, 3, 3)
        if oracles.is_convergent(comp):
            convergent = convergent or comp
        else:
            divergent = divergent or comp
    va, vb = rng.choice(CLI_VERIFY_COMPS), rng.choice(CLI_VERIFY_COMPS)
    sym = f"<{_fmt(a)};{_fmt(_labels(1, len(a)))}>", f"<{_fmt(b)};{_fmt(_labels(len(a) + 1, len(b)))}>"
    return [
        ("shuffle", [_fmt(a), _fmt(b), "--json"], (a, b)),
        ("stuffle", [_fmt(sa), _fmt(sb), "--json"], (sa, sb)),
        ("symbol-product", [*sym, "--json"], (a, b)),
        ("fraction-eval", [f"f({_fmt(fa)};{_fmt(_labels(1, len(fa)))})",
                           *(f"{i}={v}" for i, v in point.items()), "--json"], (fa, point)),
        ("fraction-eval", [f"f({_fmt(fb)};{_fmt(_labels(1, len(fb)))})", "--json"], (fb, None)),
        ("convergent", [_fmt(convergent)], convergent),
        ("convergent", [_fmt(divergent)], divergent),
        ("zeta", [_fmt(p := rng.choice(CLI_ZETA_POINTS)), "--tol", str(CLI_TOL), "--json"], p),
        ("verify", [_fmt(va), _fmt(vb), "--tol", str(CLI_TOL), "--json"], (va, vb)),
    ]


def run_cli(E, seed, rnd):
    calls = cli_inputs(seed)
    results, latencies = [], []
    rnd.begin_phase()
    for command, args, _ in calls:
        rnd.attempted += 1
        t = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "extshuffle", command, *args],
                              capture_output=True, text=True, check=False)
        latencies.append(perf_counter() - t)
        rnd.completed += 1
        results.append(proc)
        rnd.reference_point()
    rnd.end_phase()
    rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    rnd.figures["cli_latency_ms"] = statistics.median(latencies) * 1000

    if rnd.tracer is not None:  # the parsing layer, in process, over the same arguments
        rnd.tracer.paused = False
        for command, args, _ in calls:
            for text in args:
                if text.startswith("<"):
                    E.parse_symbol(text)
                elif text.startswith("f("):
                    E.parse_fraction(text)
                elif "=" in text:
                    E.parse_assignment(text)
                elif text.startswith("[") or text == "1":
                    E.parse_composition(text)
        rnd.tracer.paused = True

    for (command, args, given), proc in zip(calls, results):
        what = f"extshuffle {command} {' '.join(args)}"
        expected_code = 1 if command == "convergent" and not oracles.is_convergent(given) else 0
        if proc.returncode != expected_code:
            rnd.check(False, f"{what}: exit {proc.returncode}, expected {expected_code}: "
                      f"{proc.stderr.strip()[-200:]}")
            continue
        if command == "convergent":
            rnd.check((proc.stdout.strip() == "convergent") == (expected_code == 0), what)
            continue
        data = json.loads(proc.stdout)
        if command in ("shuffle", "stuffle"):
            got = {tuple(t["comp"]): Fraction(t["coef"]) for t in data["terms"]}
            oracle = oracles.word_shuffle_product if command == "shuffle" else oracles.stuffle_product
            rnd.check(got == oracle(*given), what)
        elif command == "symbol-product":
            a, b = given
            raw = {(tuple(t["comp"]), tuple(t["labels"])): Fraction(t["coef"]) for t in data["terms"]}
            rnd.check(oracles.project_labels(raw) == oracles.word_shuffle_product(a, b), what)
            rnd.check(all(oracles.is_interleaving(lab, _labels(1, len(a)), _labels(len(a) + 1, len(b)))
                          for _, lab in raw), what)
        elif command == "fraction-eval":
            exps, point = given
            rows = [{"point": point, "value": data["value"]}] if point else data["panel"]
            rnd.check(len(rows) == (1 if point else 8), what)
            for row in rows:
                at = {int(i): Fraction(v) for i, v in row["point"].items()}
                value = oracles.chen_fraction_value(exps, _labels(1, len(exps)), at)
                rnd.check(Fraction(row["value"]) == value, f"{what} at {row['point']}")
        elif command == "zeta":
            exact, formula = oracles.load_closed_forms()[given]
            rnd.check(data["converged"] and abs(Fraction(data["value"]) - exact) <= CLI_TOL,
                      f"{what}: {data['value']} vs {formula}")
        elif command == "verify":
            a, b = given
            terms = {tuple(t["comp"]): Fraction(t["coef"]) for t in data["expansion"]["terms"]}
            rnd.check(data["pass"] and data["delta"] < data["tolerance"], what)
            rnd.check(terms == oracles.word_shuffle_product(a, b), f"{what}: expansion")
            rnd.check(all(oracles.is_convergent(c) for c in terms), f"{what}: convergence")


WORKLOADS = {"algebra": run_algebra, "series": run_series, "certify": run_certify, "cli": run_cli}

"""One round of one workload in a fresh process; prints one JSON line.

    python3 perfbench/round.py <workload> <seed> <trace 0|1> [<span file>]
    python3 perfbench/round.py --import-only

The package is imported first, before anything it imports itself, so the
import time is what a fresh user process pays.  ``run.py`` starts this under
an address-space limit and with ``src`` on ``PYTHONPATH``.
"""

import sys
import time

_start = time.perf_counter()
import extshuffle  # noqa: E402

SETUP_S = time.perf_counter() - _start


def main(argv) -> int:
    import json
    import traceback

    if argv == ["--import-only"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    span_path = argv[3] if len(argv) > 3 else None

    import spans
    import workloads

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    rnd = workloads.Round(tracer)
    try:
        workloads.WORKLOADS[workload](extshuffle, seed, rnd)
    except Exception:  # a crash is a wrong result: report it and fail the run
        rnd.wrong.append("exception: " + traceback.format_exc(limit=4))
    result = {
        "workload": workload,
        "setup_s": SETUP_S,
        "peak_rss_mb": rnd.peak_rss_mb,
        "ops_per_s": rnd.completed / rnd.phase_s if rnd.phase_s else 0.0,
        "ops_per_ref_s": rnd.completed / rnd.ref_s if rnd.ref_s else 0.0,
        "ref_s": rnd.ref_s,
        "speed": rnd.ref_s / rnd.phase_s if rnd.phase_s else 0.0,
        "completed": rnd.completed,
        "attempted": rnd.attempted,
        "failures": rnd.failures,
        "wrong": rnd.wrong[:20],
        "figures": rnd.figures,
        "traced": traced,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rnd)
        if span_path:
            tracer.write(span_path)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, rnd) -> dict:
    """Per-layer figures from the spans of one traced round."""
    from spans import COUNT, END, NAME, START

    own = tracer.self_times()
    by_name: dict = {}
    for rec, self_s in zip(tracer.spans, own):
        entry = by_name.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "count": 0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["count"] += rec[COUNT]
        entry["durations"].append(rec[END] - rec[START])

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(e["self_s"] for n, e in by_name.items() if n.startswith(layer + "."))

    def quantile(name, q):
        durations = sorted(get(name, "durations") or [0.0])
        return durations[min(len(durations) - 1, int(q * len(durations)))]

    lincomb_terms = get("zeta.zeta_of_lincomb", "count")
    return {
        "shuffle.ext_shuffle.calls": get("shuffle.ext_shuffle", "calls"),
        "shuffle.ext_shuffle.self_s": get("shuffle.ext_shuffle", "self_s"),
        "shuffle.ext_shuffle.terms": get("shuffle.ext_shuffle", "count"),
        "shuffle.ext_shuffle.p50_us": quantile("shuffle.ext_shuffle", 0.5) * 1e6,
        "shuffle.ext_shuffle.p99_ms": quantile("shuffle.ext_shuffle", 0.99) * 1e3,
        "shuffle.ext_shuffle_lin.self_s": get("shuffle.ext_shuffle_lin", "self_s"),
        "shuffle.stuffle.self_s": get("shuffle.stuffle", "self_s"),
        "symbols.symbol_product.calls": get("symbols.symbol_product", "calls"),
        "symbols.symbol_product.self_s": get("symbols.symbol_product", "self_s"),
        "symbols.symbol_product.terms": get("symbols.symbol_product", "count"),
        "chenfrac.fraction_product.self_s": get("chenfrac.fraction_product", "self_s"),
        "chenfrac.evaluate.calls": get("chenfrac.evaluate", "calls"),
        "chenfrac.evaluate.self_s": get("chenfrac.evaluate", "self_s"),
        "convergence.self_s": layer_self("convergence"),
        "zeta.zeta.calls": get("zeta.zeta", "calls"),
        "zeta.zeta.self_s": get("zeta.zeta", "self_s"),
        "zeta.cutoff_total": get("zeta.zeta", "count"),
        "zeta.level_terms": tracer.level_terms,
        "zeta.level_terms_per_s": rnd.figures.get("level_terms_per_s", 0.0),
        "zeta.zeta_of_lincomb.self_s": get("zeta.zeta_of_lincomb", "self_s"),
        "zeta.zeta_of_lincomb.terms": lincomb_terms,
        "zeta.distinct_terms": len(tracer.distinct_terms),
        "zeta.distinct_share": len(tracer.distinct_terms) / lincomb_terms if lincomb_terms else 0.0,
        "zeta.verify_homomorphism.self_s": get("zeta.verify_homomorphism", "self_s"),
        "relations.double_shuffle_relation.self_s": get("relations.double_shuffle_relation", "self_s"),
        "relations.enumerate_relations.s": sum(get("relations.enumerate_relations", "durations") or [0.0]),
        "algebra.self_s": layer_self("algebra"),
        "parsing.self_us": layer_self("parsing") * 1e6,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

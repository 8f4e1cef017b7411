"""Benchmark command: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run repeats whole rounds of the
workload for ``--seconds`` seconds, starting a round only if a round of the
usual length still ends in time; each round is a fresh process
(``round.py``), because the package's memo caches cannot be cleared and a
cold cache is what every user process pays.  Rounds run one at a time on one
thread, under an address-space limit, so a memo that outgrows it ends as a
recorded failed round instead of an out-of-memory kill.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from the traced rounds, which alternate with untraced rounds so the tracing
overhead is measured in the same run.  Every failed operation, with its input
and fault, and every round's figures go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
MEMORY_CAP_BYTES = 2 << 30
MIN_SETUP_SAMPLES = 12
RUN_LIMIT_S = 170.0
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, deadline):
    """Run a capped child to completion; returns (parsed last line or None, error)."""
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True, check=False,
            timeout=max(5.0, deadline - time.monotonic()), preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {proc.returncode}: {tail[0][:300]}"
    return json.loads(lines[-1]), None


def probe_ms(env, code, deadline, repeats=3):
    """Median wall time of a fresh interpreter running ``code``, or the figure it prints."""
    values = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=False, preexec_fn=_cap_memory,
                              timeout=max(5.0, deadline - time.monotonic()))
        wall = time.perf_counter() - start
        values.append(float(proc.stdout) * 1000 if proc.stdout.strip() else wall * 1000)
    return statistics.median(values)


def ops_per_ref_s(rounds) -> float:
    """Operations completed over the measured time in reference seconds, the
    rounds taken together."""
    ref_s = sum(r["ref_s"] for r in rounds)
    return sum(r["completed"] for r in rounds) / ref_s if ref_s else 0.0


def main(argv=None) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # every process of the run on one CPU, so the reference kernel in a round
        # process and the extshuffle children of the cli workload share its speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "extshuffle", "__init__.py")):
        print("error: run from the root of an extshuffle checkout (no src/extshuffle here)",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    round_py = os.path.join(HERE, "round.py")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, errors = [], []

    def import_probe(sample=True):
        probe, error = run_child([sys.executable, round_py, "--import-only"], env, deadline)
        if error:
            errors.append(f"import probe: {error}")
        elif sample:
            setups.append(probe["setup_s"])

    # the first fresh process leaves the bytecode cache behind, as an installed
    # package would have it; its import time is not a sample
    import_probe(sample=False)

    start_up = {}
    if args.trace:
        start_up["cli.interpreter_ms"] = probe_ms(env, "pass", deadline)
        start_up["cli.numpy_import_ms"] = probe_ms(
            env, "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)",
            deadline)

    rounds, walls = [], []
    start = time.monotonic()
    while not errors:
        usual = statistics.median(walls) if walls else 0.0
        if len(rounds) >= 1 + args.trace and time.monotonic() - start + usual > args.seconds:
            break
        traced = args.trace == 1 and len(rounds) % 2 == 1
        round_start = time.monotonic()
        import_probe()  # set-up samples spread over the run: one probe before each round
        argv = [sys.executable, round_py, args.workload, str(args.seed), str(int(traced))]
        if traced:
            argv.append(os.path.join(out_dir, f"{tag}-round{len(rounds)}-spans.jsonl"))
        result, error = run_child(argv, env, deadline)
        if error:
            errors.append(f"round {len(rounds)}: {error}")
            break
        walls.append(time.monotonic() - round_start)
        rounds.append(result)
        setups.append(result["setup_s"])
        if time.monotonic() > deadline:
            break
    elapsed = time.monotonic() - start
    while not errors and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
        import_probe()

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    correct = not errors and not wrong and bool(rounds)

    if args.trace == 0:
        metrics = {"setup_s": statistics.median(setups) if setups else 0.0,
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else 0.0}
        metrics["ops_per_ref_s"] = ops_per_ref_s(plain)
    else:
        metrics = {}
        for name in traced_rounds[0]["layers"] if traced_rounds else ():
            metrics[name] = statistics.median(r["layers"][name] for r in traced_rounds)
        metrics.update(start_up)
        metrics["cli.import_ms"] = statistics.median(setups) * 1000 if setups else 0.0
        if plain and traced_rounds:
            # the warm pass runs after the spans stop, but in traced rounds still
            # through the paused wrappers, so it is taken from the untraced rounds
            metrics["shuffle.warm_products_per_s"] = statistics.median(
                r["figures"].get("warm_products_per_s", 0.0) for r in plain)
            metrics["trace.overhead.ops_per_ref_s_pct"] = (
                ops_per_ref_s(plain) / ops_per_ref_s(traced_rounds) - 1) * 100
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
        correct = False

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "elapsed_s": elapsed, "errors": errors, "setup_samples_s": setups,
              "rounds": rounds}
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh)

    print(f"perfbench {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced_rounds)} traced) in {elapsed:.1f} s")
    for i, r in enumerate(rounds):
        figures = " ".join(f"{k}={v:.4g}" for k, v in r["figures"].items())
        print(f"  round {i}{' traced' if r['traced'] else ''}: ops/ref-s {r['ops_per_ref_s']:.4g}, "
              f"ops/s {r['ops_per_s']:.4g} at speed {r['speed']:.2f}, "
              f"setup {r['setup_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.0f} MB, {figures}")
    for (op, inp, fault), n in Counter((f["op"], f["input"], f["fault"]) for f in failures).items():
        print(f"  failed x{n}: {op}{inp} [{fault}]")
    for line in errors + wrong[:20]:
        print(f"  WRONG: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

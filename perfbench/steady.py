"""Steadiness check: run each workload on several seeds and report the spread.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads certify --seeds 5

Run from the root of a source checkout.  For every end-to-end metric it
prints the median and quartiles of the per-run values, and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound in BENCHMARK.json is flagged, as is a run whose
share of failed operations differs from the others'.  The summary is also
written to ``.perfbench/steady-<workloads>.json``; it is the evidence for the
bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one run each")
    args = parser.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result: "
                      f"{proc.stderr.strip()[-300:]}")
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < metric["bound"] / 3 else (
                " (above a third of the bound)" if spread <= metric["bound"] else " (ABOVE THE BOUND)")
            if spread > metric["bound"]:
                ok = False
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "values": values}
            print(f"  {workload} {metric['name']}: median {med:.4g} {metric['unit']} "
                  f"[q1 {q1:.4g}, q3 {q3:.4g}] spread {spread:.1%} bound {metric['bound']:.0%}{flag}")
        print(f"  {workload} failed share: {', '.join(str(s) for s in shares)}"
              f"{'' if len(shares) == 1 else ' (DIFFERS BETWEEN RUNS)'}")
        ok = ok and len(shares) == 1 and all(r["correct"] for r in runs)
        summary[workload] = {"metrics": rows, "failed_shares": sorted(str(s) for s in shares),
                             "correct": all(r["correct"] for r in runs)}
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"steady-{args.workloads.replace(',', '-')}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

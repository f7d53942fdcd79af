#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs `BENCHMARK.json`'s command once per seed for each workload and
prints, per metric, the median and the distance between the first and
third quartiles as a share of the median — the figure the benchmark's
bounds are compared against.

    python3 perfbench/spread.py [--seeds N] [--trace 0|1] [workload ...]

Run from the repository root. Builds on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--values", action="store_true", help="print every run's value")
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT", file=sys.stderr)
                print(out.stdout, file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  <-- above a third of its bound {bound}"
            print(f"  {name:36s} median {med:14.4f} {units[name]:6s} spread {spread:7.4f}{flag}")
            if args.values:
                print("      " + " ".join(f"{v:.6g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

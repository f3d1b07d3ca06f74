#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of that
median -- the figure BENCHMARK.json's bounds are checked against.

    python3 perfbench/spread.py --workloads fig1 verify --seeds 1 2 3 4 5

Run it from the repository root; each run goes through the command in
BENCHMARK.json with --trace 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    command = spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            run = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(run.stdout)
                sys.exit(f"{workload} seed {seed}: outputs incorrect")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, series in values.items():
            middle = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = series[0]
            share = (q3 - q1) / middle if middle else float("nan")
            bound = bounds.get(name)
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<24} median {middle:<12.6g} IQR/median {share:.4f}{limit}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in series))


if __name__ == "__main__":
    main()

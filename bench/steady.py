"""Steadiness check: repeat run.py over seeds and report each metric's spread.

    python3 bench/steady.py --runs 10                      # every workload
    python3 bench/steady.py --runs 5 --workload hurwitz-search --first-seed 11

For each workload and end-to-end metric it prints the median of the runs,
the first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, the metric's bound from BENCHMARK.json and the spread
as a share of that bound.  A spread above the bound is marked; the
benchmark aims to keep every spread except setup_s under a third of its
bound.  It also prints each workload's share of failed operations, which
must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.monotonic() - t0:.0f} s)", flush=True)
        print(f"\n{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS BETWEEN RUNS"))
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            flag = "  OVER BOUND" if share > 1 else ""
            print(f"{name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{bounds[name]:>7.2f}{share:>8.2f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

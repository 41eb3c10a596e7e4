"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload hurwitz-search --seed 1 --seconds 35 --trace 0

Runs rounds of the workload back to back, each in a fresh interpreter
(round.py), until --seconds have passed.  Round k draws its inputs from
the seed and k.  Rounds that report the same inputs must report the same
output, byte for byte.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over rounds.
Times are scaled CPU seconds of the round's process (see round.py).  With
--trace 1 each round k runs twice, untraced and traced; the metrics are
the per-layer medians of the traced rounds plus the tracing overhead, the
traced minus the untraced median of round_s.

Run it from the root of a checkout: it imports braidmono from src/ there
and exits with status 2 when that is missing.
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
WORKLOADS = ("arrangement-oracle", "hurwitz-search", "curve-pipeline")
MIN_ROUNDS = 4
# A round still running this many seconds after --seconds have passed is
# killed and the run fails.  It allows for a few slow rounds: a traced run
# starts an untraced and a traced round just before --seconds pass.
MARGIN = 120


def spawn(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """Run one round in a fresh interpreter, killed at the monotonic time
    `deadline`; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(rounds, key) -> float:
    return statistics.median(key(r) for r in rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "braidmono", "__init__.py")):
        print(f"error: no braidmono sources under {ROOT}/src", file=sys.stderr)
        return 2

    plain, traced = [], []
    wrong = []
    outputs = {}  # inputs digest -> outputs digest
    start = time.monotonic()
    deadline = start + args.seconds + MARGIN
    index = 0
    try:
        while index < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            batch = [spawn(args.workload, args.seed, index, False, deadline)]
            plain.append(batch[0])
            if args.trace:
                batch.append(spawn(args.workload, args.seed, index, True, deadline))
                traced.append(batch[1])
            for r in batch:
                for e in r["errors"]:
                    print(f"round {index} failed: {e}", file=sys.stderr)
                wrong.extend(r["wrong"])
                if r["digest"] is not None:
                    inputs, out = r["digest"]
                    if outputs.setdefault(inputs, out) != out:
                        wrong.append(f"round {index}: output differs from an "
                                     "earlier round on the same inputs")
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for w in wrong:
        print(f"wrong: {w}", file=sys.stderr)
    rounds = plain + traced
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["errors"]) for r in rounds),
    }
    if args.trace:
        import spans

        traced_s = median(traced, lambda r: r["round"])
        metrics = {
            name: {"value": median(traced, lambda r: r["layers"][name]), "unit": unit}
            for name, unit in spans.LAYER_METRICS
        }
        metrics["trace.round_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_s - median(plain, lambda r: r["round"]), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(plain, lambda r: r["setup"]), "unit": "s"},
            "round_s": {"value": median(plain, lambda r: r["round"]), "unit": "s"},
            "peak_rss_mb": {"value": median(plain, lambda r: r["rss_mb"]), "unit": "MB"},
        }
        for k in range(3):
            metrics[f"stage{k + 1}_s"] = {
                "value": median(plain, lambda r: r["stages"][k]), "unit": "s"}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of one workload in a fresh interpreter.

run.py starts this script once per round, so braidmono's memo tables start
cold as they do for a command-line user.  The round builds its inputs from
the seed and the round's input index, runs the workload's timed segments,
checks the outputs and prints one JSON object as its last line of output.

Times are CPU seconds of this process (the workloads are single-threaded
and compute-bound), scaled to a reference speed.  The machine this runs on
is shared: the CPU time of identical work drifts by a third and more from
one minute to the next.  So a fixed pure-Python job, `reference`, runs
before the first segment and after every segment, and the round's times
are multiplied by REFERENCE_S over the mean time of those reference jobs.
The result reads as the CPU seconds the work would take at the speed where
the reference job takes REFERENCE_S, which is about the speed of an idle
core of the 2-core machine the README figures come from.  The reference
job allocates next to nothing and runs with the garbage collector off, so
neither its cost nor the peak resident set depends on the program's heap.

    setup         scaled CPU seconds from interpreter start to the first
                  timed segment (imports and input generation included)
    stages, round scaled seconds of each stage and of the timed section
    rss_mb        peak resident set of this process at the end of the
                  timed section, before the checks run
    attempted     operations attempted; errors lists the ones that failed
    wrong         outputs that disagree with a check
    digest        hash of the outputs, compared between rounds sharing inputs
    layers        per-layer metrics, times scaled (traced rounds only)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_S = 0.055
REFERENCE_KEYS = [((i * 7919) % 10007, i & 7) for i in range(64)]
REFERENCE_TABLE = dict.fromkeys(REFERENCE_KEYS, 0)


def reference() -> float:
    """CPU seconds of a fixed pure-Python job: tuple-keyed reads and writes
    of a small dict, with values kept among the cached small ints."""
    keys, table = REFERENCE_KEYS, REFERENCE_TABLE
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(10000):
            for k in keys:
                table[k] = (table[k] + 1) & 255
        return time.process_time() - t0
    finally:
        gc.enable()


def import_program():
    sys.path.insert(0, SRC)
    import braidmono
    from braidmono import (arrangements, braid, cli, factorization, garside,  # noqa: F401
                           regeneration, textio, vankampen)

    if not os.path.abspath(braidmono.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"braidmono imported from {braidmono.__file__}, not {SRC}")
    return braidmono


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bm = import_program()
    import oracle
    import workloads

    rng = random.Random(f"{args.workload}/{args.seed}/{args.index}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = None
    try:
        if cls is workloads.CurvePipeline:
            workdir = os.path.join(HERE, ".work", str(os.getpid()))
            os.makedirs(workdir)
            load = cls(bm, rng, workdir)
        else:
            load = cls(bm, rng)
        setup = time.process_time()

        ops = workloads.Ops()
        refs = [reference()]
        cpu = [0.0, 0.0, 0.0]
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
            recorder.install(bm)
        try:
            for stage, segment in load.segments():
                t0 = time.process_time()
                segment(ops)
                cpu[stage] += time.process_time() - t0
                refs.append(reference())
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            if recorder is not None:
                recorder.uninstall()

        load.check(ops)
        if load.sample is not None:
            problems = oracle.self_test(
                workloads.b3_factorization(bm).factors, load.sample)
            ops.wrong.extend(f"oracle self-test: {p}" for p in problems)
        digest = load.digest() if hasattr(load, "digest") else None
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    scale = REFERENCE_S / statistics.mean(refs)
    stages = [t * scale for t in cpu]
    print(json.dumps({
        "setup": setup * scale,
        "stages": stages,
        "round": sum(stages),
        "rss_mb": rss_mb,
        "attempted": ops.attempted,
        "errors": ops.errors,
        "wrong": ops.wrong,
        "digest": digest,
        "layers": recorder.metrics(scale) if recorder is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run perfbench over several seeds and save each run's output.

    python3 perfbench/sweep.py --out DIR [--workloads olap_local,olap_sync,serve_rw]
                               [--seeds 1-10] [--sets 2] [--trace 0]

Runs are interleaved: for each seed, each set runs every workload once, so
host drift lands on all sets alike. Set k (A, B, ...) uses seed + 100*k and
writes DIR/<set>/<workload>-seed<n>-trace<t>.out; compare them with
perfbench/compare.py DIR/A DIR/B. The run length is BENCHMARK.json's
run_seconds. Runs one process at a time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="olap_local,olap_sync,serve_rw")
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--sets", default=1, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    failures = 0
    for seed in args.seeds:
        for k in range(args.sets):
            set_dir = os.path.join(args.out, "ABCDEFGH"[k])
            os.makedirs(set_dir, exist_ok=True)
            for workload in args.workloads.split(","):
                run_seed = seed + 100 * k
                path = os.path.join(set_dir, "%s-seed%d-trace%d.out"
                                    % (workload, run_seed, args.trace))
                with open(path, "w") as out:
                    rc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", str(run_seed),
                         "--seconds", str(seconds), "--trace", str(args.trace)],
                        cwd=ROOT, stdout=out).returncode
                print("%s seed %d set %s: exit %d" % (workload, run_seed,
                                                      "ABCDEFGH"[k], rc),
                      flush=True)
                failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

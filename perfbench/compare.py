#!/usr/bin/env python3
"""Summarize and compare sets of perfbench run outputs.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each argument is a directory of saved run outputs (the stdout of
perfbench/run.py, one file per run, as perfbench/sweep.py writes them).
For every workload x metric it prints the run count, the median, the
quartiles (statistics.quantiles(n=4)) and the spread, (q3 - q1) / median.
Given two sets, it also prints how far set B's median lies from set A's,
|B - A| / A, and whether that stays within the metric's bound in
BENCHMARK.json. Exits 1 if any check fails: a run file without a result,
a run that is incorrect or has a failed operation, an end-to-end spread
above its bound, or two medians that differ by more than it.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """({(workload, trace): [result dict, ...]}, [incomplete file, ...])."""
    runs, incomplete = {}, []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l.rstrip("\n") for l in f if l.strip()]
        header = [l for l in lines if l.startswith("# workload ")]
        if not header or not lines[-1].startswith("{"):
            print("INCOMPLETE %s: no run result" % path)
            incomplete.append(path)
            continue
        words = header[0].split()
        key = (words[2], int(words[words.index("trace") + 1]))
        runs.setdefault(key, []).append(json.loads(lines[-1]))
    return runs, incomplete


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else [med] * 3
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    loaded = [load_runs(d) for d in argv[1:]]
    sets = [runs for runs, _ in loaded]
    ok = not any(incomplete for _, incomplete in loaded)
    for key in sorted(set().union(*[s.keys() for s in sets])):
        workload, trace = key
        print("\n== %s (trace %d) ==" % (workload, trace))
        per_set = [s.get(key, []) for s in sets]
        for i, results in enumerate(per_set):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            bad = sum(1 for r in results if not r["correct"])
            print("set %s: %d runs, attempted %d, failed %d, incorrect runs %d"
                  % ("AB"[i], len(results), attempted, failed, bad))
            ok = ok and bad == 0 and failed == 0
        names = []
        for results in per_set:
            for r in results:
                names += [n for n in r["metrics"] if n not in names]
        print("%-28s %-3s %4s %14s %14s %14s %8s %8s %s" % (
            "metric", "set", "runs", "median", "q1", "q3", "spread", "bound",
            "verdict"))
        for name in names:
            medians = []
            for i, results in enumerate(per_set):
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if not values:
                    continue
                med, q1, q3, spread = summary(values)
                medians.append(med)
                bound = e2e[name]["bound"] if name in e2e else None
                verdict = ""
                if bound is not None and len(values) >= 2:
                    verdict = "spread ok" if spread <= bound else "SPREAD > BOUND"
                    ok = ok and spread <= bound
                print("%-28s %-3s %4d %14.6g %14.6g %14.6g %8.4f %8s %s" % (
                    name, "AB"[i], len(values), med, q1, q3, spread,
                    "-" if bound is None else "%.3f" % bound, verdict))
            if len(medians) == 2 and name in e2e and medians[0]:
                a, b = medians
                within = abs(b - a) / a <= e2e[name]["bound"]
                ok = ok and within
                print("%-28s B - A = %+.2f%% of A: %s" % (
                    "", 100 * (b - a) / a,
                    "within bound" if within else "OUTSIDE BOUND"))
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

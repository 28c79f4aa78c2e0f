#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build.

    python3 perfbench/steady.py [--runs 10] [--traced 1]

Run from the root of a checkout. For every workload of BENCHMARK.json it
makes two sets of --runs untraced runs, each run with its own seed, and
prints per end-to-end metric the median and quartiles of each set, the
quartile spread as a share of the median, and whether the sets agree within
BENCHMARK.json's bounds:

  * spread: (q3 - q1) / median of each set must stay within the bound, and
    is marked 'wide' above a third of it;
  * drift: the two sets' medians may differ by at most the bound, in
    either direction.

With --traced N it also makes N traced runs per workload and set and prints
the per-layer medians, trace_overhead (traced / untraced p50) among them.
Exits non-zero when a set disagrees or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEED_BASE = 1000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
        for line in lines[-5:]:
            print("  " + line)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    ok = True
    for w in workloads:
        sets = []
        traced_sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                r = run_once(w, SEED_BASE + 100 * s + i, seconds, 0)
                if r is None:
                    ok = False
                    continue
                runs.append(r["metrics"])
            sets.append(runs)
            traced = []
            for i in range(args.traced):
                r = run_once(w, SEED_BASE + 100 * s + 50 + i, seconds, 1)
                if r is None:
                    ok = False
                    continue
                traced.append(r["metrics"])
            traced_sets.append(traced)

        print("== %s (%d s runs)" % (w, seconds))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for runs in sets:
                values = [r[name]["value"] for r in runs if name in r]
                if not values:
                    cells.append("no data")
                    ok = False
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                mark = ""
                if spread > bound:
                    mark = " OVER"
                    ok = False
                elif spread > bound / 3:
                    mark = " wide"
                medians.append(med)
                cells.append("med %.6g [%.6g, %.6g] spread %.3f%s"
                             % (med, q1, q3, spread, mark))
            drift = ""
            if len(medians) == SETS:
                d = worse_by(medians[0], medians[1], m["better"])
                agree = abs(d) <= bound
                ok = ok and agree
                drift = "  drift %+.3f %s" % (d, "agree" if agree else
                                               "DISAGREE")
            print("  %-22s %s%s" % (name, " | ".join(cells), drift))
        if args.traced:
            for m in spec["per_layer"]:
                name = m["name"]
                cells = []
                for runs in traced_sets:
                    values = [r[name]["value"] for r in runs if name in r]
                    if values:
                        q1, med, q3 = quartiles(values)
                        cells.append("med %.6g [%.6g, %.6g]" % (med, q1, q3))
                print("  %-38s %s" % (name, " | ".join(cells)))
        sys.stdout.flush()
    print("steady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

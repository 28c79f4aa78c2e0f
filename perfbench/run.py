#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then run
as six processes (one with --trace 1) whose metrics are combined by
median. Human-readable lines go first: the host record, every metric with its
unit and sample count, and any output-check violation. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero when the build fails, the run
fails, or an output check finds a wrong record.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flstore_read_mix", "geo_replicate")
RUN_TIMEOUT_S = 170
# An untraced run is split into this many processes of --seconds / SUBRUNS
# each, and every metric is the median over them (set-up too: each process
# sets up once). A process keeps one placement of its threads on the CPUs
# for its life, and on a 4-core VM that alone moved RPC latency medians by
# up to 40% from one process to the next.
SUBRUNS = 6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no sources at %s/src; run from a full checkout" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(out_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, work, deadline):
    """Runs the binary once; returns (parsed result line, exit code)."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.time()),
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Let the next run start with the deletion's writeback done.
        os.sync()
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        log("perfbench: no result from the binary (exit %d)" % proc.returncode)
        return None, proc.returncode or 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    expected = expected_metrics(args.trace)

    deadline = time.time() + RUN_TIMEOUT_S
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    parts = 1 if args.trace else SUBRUNS
    results = []
    ok = True
    for k in range(parts):
        result, code = run_binary(binary, args.workload,
                                  args.seed * SUBRUNS + k,
                                  args.seconds / parts, args.trace, work,
                                  deadline)
        if result is None:
            return 1
        ok = ok and code == 0 and result["correct"]
        results.append(result)

    metrics = {}
    for name, m in results[0]["metrics"].items():
        metrics[name] = {
            "value": statistics.median(r["metrics"][name]["value"]
                                       for r in results),
            "unit": m["unit"],
            "samples": sum(r["metrics"][name]["samples"] for r in results),
        }
    if {k: v["unit"] for k, v in metrics.items()} != expected:
        log("perfbench: metrics differ from BENCHMARK.json: got %s, want %s"
            % (sorted(metrics), sorted(expected)))
        return 3

    host = dict(results[0]["host"], seed=args.seed, seconds=args.seconds,
                processes=parts)
    print(json.dumps({"host": host}))
    for name in sorted(metrics):
        m = metrics[name]
        print("%-40s %14.4f %-6s n=%d" % (name, m["value"], m["unit"],
                                          m["samples"]))
    for r in results:
        for phase in r["late_phases"]:
            print("flag: generator p99 lateness exceeded the latency limit "
                  "in phase %s" % phase)
        for v in r["violations"]:
            print("violation: %s" % v)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the tmsim benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark (perfbench/) and the tmsim
libraries it links (src/) are configured and built into .bench_build/ at
the checkout root; build output goes to standard error. The workload then
runs in a process of its own, so its peak memory is its own, and its
report is passed through: the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The run
repeats the workload's episode until --seconds of request time have been
measured, and reports medians over the episodes.

With --trace 1 the workload runs twice, first untraced and then traced.
The traced run reports the per-layer metrics; the two runs' work_per_s
give the tracing overhead (trace.overhead_pct), and their exact simulated
counts must be equal. The traced run writes its spans to
.bench_build/spans/.

Exit status: 0 when the run passed every correctness check, 1 when a
check failed or the run produced no result, 2 when the build failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD, "tmbench")
SELFTEST = os.path.join(BUILD, "tmbench_selftest")
WORKLOADS = ("jbb_sim", "fuzz_campaign", "stm_bank")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        try:
            code = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr).returncode
        except OSError as e:
            code = str(e)
        if code:
            log("perfbench: build failed (%s): %s" % (code, " ".join(cmd)))
            return False
    return True


def run_workload(args, trace, extra=()):
    """Run one workload process; returns (exit code, report lines, result)."""
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", args.seconds, "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        log("perfbench: cannot run %s: %s" % (BENCH, e))
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return proc.returncode, lines if result is None else lines[:-1], result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 2
    if args.selftest:
        return subprocess.run([SELFTEST]).returncode

    extra = []
    ref_lines = []
    if args.trace:
        code, ref_lines, ref = run_workload(args, 0)
        print("untraced reference run:")
        print("\n".join("  " + l for l in ref_lines))
        if code or ref is None:
            log("perfbench: the untraced reference run failed")
            return 1
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        extra = ["--untraced-work-per-s",
                 repr(ref["metrics"]["work_per_s"]["value"]),
                 "--span-file",
                 os.path.join(spans, "%s-seed%d.json" % (args.workload,
                                                         args.seed))]

    code, lines, result = run_workload(args, args.trace, extra)
    if lines:
        print("\n".join(lines))
    if result is None:
        log("perfbench: the workload produced no result (exit %d)" % code)
        log("\n".join(lines[-20:]))
        return 1
    if args.trace:
        # The simulated counts are deterministic: tracing must not move them.
        untraced = [l for l in ref_lines if l.startswith("exact counts")]
        traced = [l for l in lines if l.startswith("exact counts")]
        if untraced != traced:
            log("perfbench: traced exact counts differ from the untraced run")
            return 1
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(declared) ^ set(result["metrics"])))
        return 1
    print(json.dumps(result))
    return 1 if code or not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeat the benchmark and check that its end-to-end figures are steady.

    python3 perfbench/repeat.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--first-seed 1] [--seconds S]

Run from the root of a checkout. Reads BENCHMARK.json, then for each set
runs every workload --runs times (seeds first-seed .. first-seed+runs-1),
alternating the workload order from one run to the next, with tracing off.
For each set it prints, per workload and end-to-end metric, the median,
the first and third quartiles (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median.

Exits 1 when a run fails or reports failed operations, when a spread
(other than setup_s's) exceeds the metric's bound, when a later set's
median is worse than the first set's by more than the bound, or when the
share of failed operations differs between sets. Uses only the standard
library.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    problems = []
    sets = []  # sets[s][workload] = {"results": [...], ...}
    for s in range(args.sets):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                seed = args.first_seed + i
                try:
                    res = run_once(spec, w, seed, seconds)
                except (RuntimeError, ValueError) as e:
                    problems.append("set %d: %s" % (s + 1, e))
                    continue
                if not res.get("correct") or res.get("failed"):
                    problems.append("set %d: %s seed %d: correct=%s failed=%s"
                                    % (s + 1, w, seed, res.get("correct"),
                                       res.get("failed")))
                results[w].append(res)
                print("set %d run %d %-14s seed %d done" % (s + 1, i + 1, w,
                                                            seed),
                      file=sys.stderr, flush=True)
        sets.append(results)

    for s, results in enumerate(sets):
        print("== set %d ==" % (s + 1))
        print("%-14s %-16s %14s %14s %14s %8s %6s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for w in workloads:
            runs = results[w]
            if len(runs) < 2:
                continue
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print("%-14s failed share %d/%d" % (w, failed, attempted))
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                med, q1, q3, spread = summarize(vals)
                flag = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag = "  SPREAD>BOUND"
                    problems.append("set %d: %s %s spread %.3f > bound %.3f"
                                    % (s + 1, w, m["name"], spread,
                                       m["bound"]))
                print("%-14s %-16s %14.6g %14.6g %14.6g %8.3f %6.2f%s" % (
                    w, m["name"], med, q1, q3, spread, m["bound"], flag))

    # Later sets against the first: medians within the bound, equal
    # failed shares.
    for s in range(1, len(sets)):
        for w in workloads:
            a, b = sets[0][w], sets[s][w]
            if len(a) < 2 or len(b) < 2:
                continue
            share_a = (sum(r["failed"] for r in a),
                       sum(r["attempted"] for r in a))
            share_b = (sum(r["failed"] for r in b),
                       sum(r["attempted"] for r in b))
            if share_a[0] * share_b[1] != share_b[0] * share_a[1]:
                problems.append("%s: failed share differs between sets"
                                % w)
            for m in metrics:
                ma = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in a)
                mb = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in b)
                worse = (mb - ma) / ma if m["better"] == "lower" else \
                    (ma - mb) / ma
                if worse > m["bound"]:
                    problems.append(
                        "%s %s: set %d median %.6g is %.1f%% worse than set "
                        "1's %.6g (bound %.0f%%)" % (
                            w, m["name"], s + 1, mb, 100 * worse, ma,
                            100 * m["bound"]))

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

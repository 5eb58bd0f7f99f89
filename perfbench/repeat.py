#!/usr/bin/env python3
"""Repeat the benchmark and summarise each metric's spread.

Runs every chosen workload --runs times, each run with its own seed, and
prints per metric the median, first and third quartiles, and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json:

    python3 perfbench/repeat.py --runs 10

Given two source trees (--tree A --tree B, each a repository root
holding perfbench/), it alternates between them run by run (A first on
even runs, B first on odd ones, same seed for both) and also prints each
metric's median change from A to B and the share of pairs B won. This is
how the bounds were set and how a change is checked against its parent.
--trace 1 summarises the per-layer metrics instead (and, from the
`# name value unit` lines a traced run prints, the end-to-end metrics
measured with tracing on, so the tracing overhead can be read off).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    side = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#":
            side[parts[1]] = float(parts[2])
    return result, side


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--tree", action="append", default=[],
                    help="repository root to measure (give two to compare)")
    ap.add_argument("--json", help="also write every run's results here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    trees = [os.path.abspath(t) for t in args.tree] or [ROOT]
    if len(trees) > 2:
        raise SystemExit("at most two trees")

    log = {}
    for workload in workloads:
        results = {t: [] for t in trees}
        for i in range(args.runs):
            seed = args.seed_base + i
            order = trees if i % 2 == 0 else list(reversed(trees))
            for tree in order:
                results[tree].append(run_once(tree, workload, seed, seconds,
                                              args.trace))
        log[workload] = {t: [r for r, _ in results[t]] for t in trees}
        print("== %s: %d runs x %d s, trace %d" %
              (workload, args.runs, seconds, args.trace))
        for tree in trees:
            rs = [r for r, _ in results[tree]]
            shares = {r["failed"] / r["attempted"] for r in rs}
            print("   %s: correct %s, failed share %s" %
                  (tree, all(r["correct"] for r in rs), sorted(shares)))
        names = list(results[trees[0]][0][0]["metrics"])
        if args.trace:
            names += [n for n in bounds if n in results[trees[0]][0][1]]
        for name in names:
            cells = []
            per_tree = []
            for tree in trees:
                vals = [r["metrics"][name]["value"] if name in r["metrics"]
                        else side[name] for r, side in results[tree]]
                per_tree.append(vals)
                med, q1, q3, sp = spread(vals)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name in results[tree][0][0]["metrics"]:
                    flag = " ok" if sp <= bound / 3 else (
                        " wide" if sp <= bound else " OVER")
                cells.append("median %.6g q1 %.6g q3 %.6g spread %.3f%s%s" % (
                    med, q1, q3, sp,
                    "" if bound is None else " (bound %.2f)" % bound, flag))
            line = "   %-30s %s" % (name, " | ".join(cells))
            if len(trees) == 2:
                a, b = per_tree
                ma, mb = statistics.median(a), statistics.median(b)
                sign = -1 if better.get(name) == "lower" else 1
                wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
                print(line)
                line = "   %-30s B vs A median change %+.3f, B better in %d/%d pairs" % (
                    "", (mb - ma) / ma if ma else float("nan"), wins, len(a))
            print(line)
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(log, f, indent=1)


if __name__ == "__main__":
    main()

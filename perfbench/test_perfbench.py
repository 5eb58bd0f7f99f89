#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, in seconds.

    python3 perfbench/test_perfbench.py

Checks that
  * each workload runs clean (correct, 0 failed) and reports every metric
    BENCHMARK.json names, end-to-end untraced and per-layer traced;
  * message and hop counts repeat exactly across runs (fixed round
    counts, so the aggregates are comparable; every run also re-runs its
    reference queries serially and on two driver threads itself);
  * deliberately corrupted results are reported: a flipped success flag
    and a wrong flood message count as failed operations, a cleared
    filter bit as a failed table check;
  * without the Makalu sources beside it the benchmark exits non-zero
    and prints no result.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COUNTS = ("flood_msgs_per_query", "flood_hit_hops", "abf_msgs_per_query")


def bench(*args, cwd=ROOT, check=True):
    done = subprocess.run([sys.executable, RUN, "--scale", "tiny",
                           "--seconds", "1"] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if not check:
        return done
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        fail("run %s exited %d" % (" ".join(args), done.returncode))
    return json.loads(lines[-1])


def fail(why):
    print("FAIL: " + why)
    sys.exit(1)


def expect(cond, why):
    if not cond:
        fail(why)
    print("ok: " + why)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    for w in [x["name"] for x in spec["workloads"]]:
        r = bench("--workload", w, "--seed", "7", "--trace", "0")
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               "%s runs clean" % w)
        expect(sorted(r["metrics"]) == sorted(e2e) and
               all(r["metrics"][n]["value"] > 0 for n in e2e),
               "%s reports every end-to-end metric, none 0" % w)
        t = bench("--workload", w, "--seed", "7", "--trace", "1")
        expect(t["correct"] and t["failed"] == 0 and
               sorted(t["metrics"]) == sorted(layers),
               "%s traced run reports every per-layer metric" % w)

        runs = [bench("--workload", w, "--seed", "3", "--trace", "0",
                      "--rounds", "2") for _ in range(2)]
        same = all(r["metrics"][n]["value"] == runs[0]["metrics"][n]["value"]
                   for r in runs for n in COUNTS)
        expect(same, "%s message and hop counts repeat across runs" % w)

    for w, inject in (("paper_search", "flip-success"),
                      ("paper_search", "wrong-messages"),
                      ("abf_openloop", "flip-success"),
                      ("abf_churn", "wrong-messages")):
        r = bench("--workload", w, "--seed", "7", "--trace", "0",
                  "--inject", inject)
        expect(r["failed"] >= 1, "%s reports the %s corruption as a failed "
               "operation" % (w, inject))
    r = bench("--workload", "abf_churn", "--seed", "7", "--trace", "0",
              "--inject", "clear-filter-bit")
    expect(not r["correct"], "abf_churn reports a cleared filter bit")

    # Only BENCHMARK.json and the benchmark directory: no sources to build.
    alone = os.path.join(ROOT, ".bench_build", "alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(alone, "perfbench", "run.py"),
         "--workload", "paper_search", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=alone, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(alone, ignore_errors=True)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without the sources the benchmark fails and prints no result")
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark entry point.

Builds makalu_perfbench (Release) from the Makalu sources next to this
directory into its own build tree, then runs one workload:

    python3 perfbench/run.py --workload paper_search --seed 1 \
        --seconds 10 --trace 0

Every argument is passed to the binary (see README.md). The last line of
standard output is the run's JSON result; build output goes to standard
error. The build tree is $CARGO_TARGET_DIR/perfbench-<hash> when that
variable is set (relative paths taken from the repository root), otherwise
.bench_build/perfbench-<hash>, where <hash> names this directory: two
checkouts sharing one CARGO_TARGET_DIR never build into, or measure, each
other's tree. A traced run writes its spans there too, under traces/,
unless --trace-out names a file.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def build(tree):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "makalu_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(tree, "makalu_perfbench")


def option(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    tree = build_dir()
    binary = build(tree)
    if binary is None:
        return 1
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        traces = os.path.join(tree, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.jsonl" % (option(args, "--workload"),
                                    option(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    try:
        done = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

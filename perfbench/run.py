#!/usr/bin/env python3
"""Build and run the Jrpm end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <suite|forge-strict|service-warm> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark (perfbench/ is its
own CMake project compiling ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally.
The benchmark's stdout is relayed; its last line is one JSON object
with "correct", "attempted", "failed" and "metrics".  The metric names
and units are checked against BENCHMARK.json.  Exits non-zero when the
build fails, any output check fails, or the metrics disagree with
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself must finish well inside the 180 s run limit.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "jrpm_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)

    cmd = [os.path.join(build_dir, "jrpm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")

    try:
        result = json.loads(lines[-1])
        got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    except (ValueError, KeyError, TypeError) as e:
        print("\n".join(lines))
        sys.exit("perfbench: malformed result line: %s" % e)
    want = expected_metrics(args.trace)
    if got != want:
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got) ^ set(want)))

    print("\n".join(lines))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

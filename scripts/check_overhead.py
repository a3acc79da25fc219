#!/usr/bin/env python3
"""Gate the compiled-in-but-disabled host-profiler overhead at 5%.

The observatory's contract is that the profiler, which every build
compiles in, costs nearly nothing while it is disabled: each
instrumented scope adds one relaxed atomic load and a branch.  This script enforces that contract against the committed
simulator-speed trajectory.

Method (same median normalization as check_simspeed.py, so host speed
differences between the trajectory machine and the CI machine cancel):

 1. take the LAST trajectory entry of ``BENCH_simspeed.json`` as the
    baseline;
 2. compute current/baseline throughput ratios for every benchmark
    both files share;
 3. the median ratio estimates the host-speed factor;
 4. the *gated* benchmarks (BM_SequentialSimulation,
    BM_SpeculativeSimulation — the paths the profiler instruments)
    must not fall more than ``--tolerance`` (default 5%) below that
    median.

Usage:
    bench_simulator_speed --benchmark_out=current.json \
        --benchmark_out_format=json
    scripts/check_overhead.py current.json [--tolerance=0.05]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / \
    "BENCH_simspeed.json"

RATE_KEYS = ("sim_cycles/s", "bytecodes/s")

GATED = ("BM_SequentialSimulation", "BM_SpeculativeSimulation")


def rates(gbench_json):
    out = {}
    for b in gbench_json.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        for key in RATE_KEYS:
            if key in b:
                out[b["name"]] = float(b[key])
                break
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="--benchmark_out JSON of a fresh "
                    "bench_simulator_speed run (profiler compiled in, "
                    "disabled)")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed drop below the median-normalized "
                    "baseline for the gated benchmarks (default 0.05)")
    ap.add_argument("--trajectory", type=Path, default=TRAJECTORY)
    args = ap.parse_args()

    trajectory = json.loads(args.trajectory.read_text())
    if not trajectory:
        print("empty trajectory %s" % args.trajectory)
        return 2
    baseline = trajectory[-1]["rates"]
    current = rates(json.loads(Path(args.current).read_text()))

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("no shared benchmarks between %s and the trajectory"
              % args.current)
        return 2
    ratios = {name: current[name] / baseline[name] for name in shared}
    median = statistics.median(ratios.values())
    floor = (1.0 - args.tolerance) * median
    print("baseline: %s" % trajectory[-1].get("label", "<unlabeled>"))
    print("host-speed factor (median ratio over %d benchmarks): %.3f"
          % (len(ratios), median))

    failed = []
    for name in GATED:
        if name not in ratios:
            print("MISSING gated benchmark %s in current run" % name)
            failed.append(name)
            continue
        r = ratios[name]
        overhead = (median - r) / median
        verdict = "ok" if r >= floor else "FAIL"
        print("%-28s ratio %.3f  overhead vs median %+5.1f%%  %s"
              % (name, r, 100.0 * overhead, verdict))
        if r < floor:
            failed.append(name)

    if failed:
        print("OVERHEAD GATE FAILED (> %.0f%%): %s"
              % (100.0 * args.tolerance, ", ".join(failed)))
        return 1
    print("overhead gate passed (<= %.0f%%)" % (100.0 * args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())

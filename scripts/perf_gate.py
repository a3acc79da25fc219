#!/usr/bin/env python3
"""Paired performance gate: perfbench on a parent tree and a head tree.

Run from anywhere:

    python3 scripts/perf_gate.py <parent-tree> <head-tree>

Each tree runs its own perfbench/run.py and builds into its own
<tree>/.bench_build.  The runs cover every BENCHMARK.json workload
untraced (--trace 0) plus suite traced (--trace 1), all with seed 1
and --seconds set to BENCHMARK.json's run_seconds.  A workload's runs
are PAIRS parent/head pairs, back to back, alternating which side
goes first, so host speed drift over minutes hits both sides alike.
The workload list, end-to-end metrics and bounds come from the head
tree's BENCHMARK.json.

The gate exits 1 on
 * a run that exits non-zero or reports failed > 0;
 * a counts: line (perfbench's exact modelled statistics) that
   differs from the parent's for the same workload and mode;
 * a resolved worsening: a head median worse than the parent's by
   more than the bound, where either the parent's IQR/median is
   within the bound or every head run is worse than every parent
   run.  End-to-end metrics use their BENCHMARK.json bound; the
   traced suite run's LAYER_METRICS use LAYER_BOUND.
An unresolved worsening is printed, not failed: the parent's own
spread is then too wide to tell it from host noise.  A failed run or
a counts: mismatch stops the gate at once, since timing a head that
computes something else tells nothing.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

# Parent/head pairs per workload and mode.  One run takes about 36 s
# on a 4-vCPU host, so the 4 modes x 5 pairs take about 25 minutes.
PAIRS = 5
SEED = 1
# The workload whose traced run is gated on LAYER_METRICS.
TRACED = "suite"
# Host cost of the simulator's sequential stepping, speculative
# dispatch and JIT, each per unit of modelled work.
LAYER_METRICS = ("cpu.seq_host_ns_per_cycle",
                 "tls.host_ns_per_core_cycle",
                 "jit.compile_ns_per_bytecode")
# Relative worsening allowed on LAYER_METRICS.
LAYER_BOUND = 0.30

SIDES = ("parent", "head")


def run(tree, workload, trace, seconds):
    """One perfbench run; returns (metrics, counts line) or exits 1."""
    # An inherited CARGO_TARGET_DIR would make both trees share a build.
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    counts = next((l for l in lines if l.startswith("counts:")), "")
    try:
        result = json.loads(lines[-1])
        failed = result["failed"]
    except (IndexError, ValueError, KeyError, TypeError):
        result, failed = None, None
    if proc.returncode or failed != 0:
        print("\n".join(proc.stderr.splitlines()[-40:] + lines[-40:]))
        sys.exit("perf_gate: FAIL: %s in %s exited %d with failed=%s"
                 % (" ".join(cmd[1:]), tree, proc.returncode, failed))
    return ({k: m["value"] for k, m in result["metrics"].items()},
            counts)


def counts_diff(a, b):
    """Keys whose values differ between two counts: lines."""
    da, db = (dict(kv.split("=", 1) for kv in line.split()[1:])
              for line in (a, b))
    return sorted(k for k in da.keys() | db.keys()
                  if da.get(k) != db.get(k))


def verdict(parent, head, better, bound):
    """(head/parent median ratio, verdict) for one metric's runs."""
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4, method="inclusive")
    hmed = statistics.median(head)
    ratio = hmed / pmed if pmed else (1.0 if hmed == pmed else math.inf)
    worse = (ratio - 1) if better == "lower" else (1 - ratio)
    if worse <= bound:
        return ratio, "ok"
    spread = (pq3 - pq1) / pmed if pmed else math.inf
    if better == "lower":
        every_run_worse = min(head) > max(parent)
    else:
        every_run_worse = max(head) < min(parent)
    if spread <= bound or every_run_worse:
        return ratio, "FAIL"
    return ratio, "unresolved"


def fmt(runs):
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = dict(zip(SIDES, map(os.path.abspath, sys.argv[1:])))
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
    modes = [(w["name"], 0, end_to_end) for w in spec["workloads"]]
    modes.append((TRACED, 1, [(n, LAYER_BOUND) for n in LAYER_METRICS]))

    rows = []
    for workload, trace, gated in modes:
        label = "%s --trace %d" % (workload, trace)
        runs = {side: [] for side in SIDES}
        ref = None
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                t0 = time.monotonic()
                metrics, counts = run(trees[side], workload, trace,
                                      spec["run_seconds"])
                print("%s pair %d/%d %-6s %5.1f s" % (
                    label, i + 1, PAIRS, side, time.monotonic() - t0),
                    flush=True)
                ref = ref or counts
                if counts != ref:
                    sys.exit("perf_gate: FAIL: %s: %s counts: differ from "
                             "the parent's at %s" % (
                                 label, side,
                                 " ".join(counts_diff(ref, counts)[:10])))
                runs[side].append(metrics)
        print("%s: counts: identical in all %d runs" % (label, 2 * PAIRS))
        for name, bound in gated:
            p, h = ([r[name] for r in runs[s]] for s in SIDES)
            ratio, v = verdict(p, h, better[name], bound)
            rows.append((label, name, fmt(p), fmt(h), ratio, bound, v))

    print("\n%-22s %-28s %-32s %-32s %7s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "head median [q1, q3]", "ratio", "bound", "verdict"))
    for label, name, p, h, ratio, bound, v in rows:
        print("%-22s %-28s %-32s %-32s %7.3f %5.2f  %s" % (
            label, name, p, h, ratio, bound, v))
    verdicts = [r[-1] for r in rows]
    print("\n%d ok, %d unresolved, %d FAIL" % tuple(
        verdicts.count(v) for v in ("ok", "unresolved", "FAIL")))
    failed = ["%s %s" % r[:2] for r in rows if r[-1] == "FAIL"]
    if failed:
        print("perf_gate: FAIL: resolved worsening of " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report of the repository benchmark: runs each workload in two
sets of repeated runs, each run with another seed (seeds 1..runs, then
runs+1..2*runs), and prints for every end-to-end metric its median, its
spread and its bound from BENCHMARK.json.

The spread is the interquartile distance of a set's values as a share of
their median (the larger of the two sets); the shift is how far the second
set's median moved from the first's, in the worse direction, as a share of
the first. A metric holds when both stay within its bound, setup_s
included: a bound is the change the benchmark claims to resolve, and a
metric whose same-code runs spread or shift by more cannot resolve it. The
report also prints the spread as a share of the bound; below 1/3 leaves
room for a slower host than the one measured.

    python3 perfbench/steadiness.py [--workloads paper_sim,serve_small]
                                    [--runs 10]

Run it from the repository root. It exits 1 when a metric does not hold.
Raw result lines are appended to .bench_build/steadiness.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib as bl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = ROOT / ".bench_build" / "steadiness.jsonl"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
    result = json.loads(lines[-1])
    RAW.parent.mkdir(parents=True, exist_ok=True)
    with RAW.open("a") as out:
        out.write(json.dumps({"workload": workload, "seed": seed,
                              "result": result}) + "\n")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_shift(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it improved)."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    holds = True
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, first + i, args.seconds)
                 for i in range(args.runs)]
                for first in (1, args.runs + 1)]
        print("%s: 2 sets x %d runs, %g s each"
              % (workload, args.runs, args.seconds))
        print("  %-24s %12s %8s %8s %8s %12s %s"
              % ("metric", "median", "spread", "shift", "bound",
                 "spread/bound", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            medians = [statistics.median(r[name] for r in runs)
                       for runs in sets]
            spread = max(bl.spread([r[name] for r in runs]) for runs in sets)
            shift = worse_shift(medians[0], medians[1], metric["better"])
            ok = spread <= metric["bound"] and shift <= metric["bound"]
            holds = holds and ok
            print("  %-24s %12.6g %8.4f %8.4f %8.3f %12.2f %s"
                  % (name, medians[1], spread, shift, metric["bound"],
                     spread / metric["bound"], "holds" if ok else "FAILS"))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())

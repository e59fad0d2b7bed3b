#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly.

Makes the traced run (``--trace 1``) twice for each of two seeds on every
workload and compares every count metric (unit ``count`` or ``cycles``):
two runs of one seed must agree exactly, and the script lists the counts
that also agree across the two seeds.  A count that depends on the seed's
data (which requests arrive, which blind-rotation steps are skipped) is
reported, not hidden.  Run from the repository root::

    python3 perfbench/check_counts.py [--seeds 1,2] [--workloads ...]

Exit status 1 if a count differs between two runs of the same seed, or if
a traced run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from spread import ROOT, run_once

COUNT_UNITS = ("count", "cycles")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    result = run_once(workload, seed, seconds, trace=1)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: traced run incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    bad = False
    for workload in workloads:
        runs = {seed: [traced_counts(workload, seed, spec["run_seconds"])
                       for _ in range(2)] for seed in seeds}
        for seed, (first, second) in runs.items():
            for name in first:
                if first[name] != second[name]:
                    print(f"{workload}: {name} differs between two runs of "
                          f"seed {seed}: {first[name]} vs {second[name]}")
                    bad = True
        base = runs[seeds[0]][0]
        nonzero = [n for n in base if any(runs[s][0][n] for s in seeds)]
        across = [n for n in nonzero
                  if len({runs[s][0][n] for s in seeds}) > 1]
        print(f"{workload}: {len(nonzero)} non-zero counts; "
              f"{len(nonzero) - len(across)} also repeat across seeds "
              f"{args.seeds}", flush=True)
        for name in across:
            print(f"  seed-dependent: {name} = "
                  + ", ".join(str(runs[s][0][name]) for s in seeds))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

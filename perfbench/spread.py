#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

Runs ``run.py`` once per seed on each workload (tracing off), then prints
for every metric the median and the quartile spread ``(q3 - q1) / median``
(quartiles as ``statistics.quantiles(values, n=4)`` gives them) beside the
metric's bound from ``BENCHMARK.json``.  Run from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workloads ckks-helr,...]
        [--save out.json] [--against earlier.json]

``--save`` keeps the raw values; ``--against`` also reports how far each
median moved from an earlier saved set, in the metric's worse direction.
Exit status 1 if a run was incorrect, a spread (other than ``setup_s``)
exceeds its bound, or a median moved worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One ``run.py`` process; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    saved = {}
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']}"
                      f" of {result['attempted']} failed)")
                bad = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            median, rel = spread(values[name])
            flag = ""
            if name != "setup_s" and rel > bound:
                flag, bad = "  SPREAD OVER BOUND", True
            elif rel > bound / 3:
                flag = "  (over bound/3)"
            line = (f"{workload:16s} {name:12s} median {median:12.5g} "
                    f"{m['unit']:5s} spread {rel:6.3f} bound {bound}")
            before = earlier.get(workload, {}).get(name)
            if before:
                old = statistics.median(before)
                worse = ((median - old) / old if m["better"] == "lower"
                         else (old - median) / old)
                line += f"  moved worse by {worse:+.3f}"
                if worse > bound:
                    flag, bad = flag + "  MEDIAN DRIFT", True
            print(line + flag, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload ckks-helr --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the separate traced run: spans at every layer seam,
per-layer calls and self times, the tracing overhead, a self/total time
tree on stdout and the spans as a Chrome trace under ``perfbench/out/``.
The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; metric names and units come from
``BENCHMARK.json``.  The process runs single-threaded on the default
``numpy`` kernel backend.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload name -> module in this directory.
WORKLOADS = {
    "ckks-helr": "ckks_helr",
    "tfhe-gates": "tfhe_gates",
    "model-toolchain": "toolchain",
    "serve-open-loop": "serve_open_loop",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro sources under {src}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)

    import numpy  # noqa: F401  (kept out of the timed import below)

    t0 = time.perf_counter()
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - t0

    from repro.kernels import get_backend, set_backend
    from common import Tracing
    from spans import SpanRecorder

    set_backend("numpy")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"backend {get_backend().name}  trace {args.trace}")
    if args.trace:
        recorder = SpanRecorder(args.workload)
        outcome = workload.run_traced(args.seed, Tracing(recorder))
        declared = spec["per_layer"]
        for line in recorder.tree_lines():
            print(line)
        trace_file = os.path.join(
            HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        recorder.write(trace_file)
        print(f"spans {len(recorder.spans)} -> "
              f"{os.path.relpath(trace_file, ROOT)}")
    else:
        outcome = workload.run(args.seed, args.seconds)
        outcome.metrics["setup_s"] += import_s
        declared = spec["end_to_end"]
        outcome.notes.append(("setup_import_s", import_s, "s"))

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if args.trace:
            # a layer the workload never enters reads 0 calls / 0 s
            value = outcome.metrics.get(name, 0)
        else:
            value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    error_rate = outcome.failed / max(outcome.attempted, 1)
    outcome.notes.append(("error_rate", error_rate, "ratio"))
    for name, value, unit in outcome.notes:
        print(f"{name} {value} {unit}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = (outcome.failed == 0 and not outcome.problems
               and outcome.attempted > 0)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

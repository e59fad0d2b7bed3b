"""Trace exporters: Chrome-trace JSON and CSV.

The Chrome format is the ``chrome://tracing`` / Perfetto JSON object form:
one complete ``"X"`` (duration) event per simulated op, with the program as
the process and the op's critical resource as the thread, so the resource
pipelining is visible as three parallel swim-lanes.  Timestamps are in
microseconds of simulated time (cycles / frequency).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict

from repro.compiler.cost.model import RESOURCES
from repro.telemetry.collector import TraceCollector
from repro.telemetry.events import CSV_FIELDS


def to_chrome_trace(collector: TraceCollector) -> Dict[str, object]:
    """Build the Chrome-trace JSON object for everything collected."""
    pids = {name: i + 1 for i, name in enumerate(collector.program_configs)}
    tids = {r: i + 1 for i, r in enumerate(RESOURCES)}
    trace_events = []
    for name, pid in pids.items():
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        for resource, tid in tids.items():
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": resource},
            })
    for e in collector.events:
        hz = collector.program_configs[e.program]["cycles_per_second"]
        us_per_cycle = 1e6 / hz
        lane = e.bound if e.bound in tids else "compute"
        args = {
            "kind": e.kind,
            "operator_class": e.operator_class,
            "patterns": list(e.patterns),
            "bound": e.bound,
            "compute_cycles": e.compute_cycles,
            "sram_cycles": e.sram_cycles,
            "hbm_cycles": e.hbm_cycles,
            "busy_core_cycles": e.busy_core_cycles,
            "waves": e.waves,
            "meta_ops": e.meta_ops,
            "sram_bytes": e.sram_bytes,
            "hbm_bytes": e.hbm_bytes,
        }
        args.update(e.args)
        trace_events.append({
            "name": e.name,
            "cat": e.operator_class,
            "ph": "X",
            "pid": pids[e.program],
            "tid": tids[lane],
            "ts": e.start_cycle * us_per_cycle,
            "dur": e.duration_cycles * us_per_cycle,
            "args": args,
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.telemetry",
            "summary": collector.summary_dict(),
        },
    }


def write_chrome_trace(collector: TraceCollector, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(collector), fh, indent=1, sort_keys=True)
        fh.write("\n")


def to_csv_text(collector: TraceCollector) -> str:
    """One row per op event, columns per :data:`CSV_FIELDS`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_FIELDS),
                            lineterminator="\n")
    writer.writeheader()
    for e in collector.events:
        writer.writerow(e.as_row())
    return buf.getvalue()


def write_csv(collector: TraceCollector, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_csv_text(collector))

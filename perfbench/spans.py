"""In-memory span recorder for the traced benchmark run.

Spans are taken only at public seams: a delegating kernel backend installed
with :func:`repro.kernels.set_backend`, and instance-level wrappers on
objects the benchmark itself constructs.  No ``repro`` module is patched.

Each span holds its name, start, end and parent; the recorder carries the
workload name for all of them.  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them once, at the end of the run, as a
Chrome trace (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Tuple

#: Kernel-backend method -> layer span name.  Every pointwise flavour is
#: one ``kernels.pointwise`` layer, as in the benchmark's metric names.
KERNEL_SPANS: Mapping[str, str] = {
    "ntt_forward": "kernels.ntt_forward",
    "ntt_inverse": "kernels.ntt_inverse",
    "pointwise_mul": "kernels.pointwise",
    "pointwise_add": "kernels.pointwise",
    "pointwise_sub": "kernels.pointwise",
    "negate": "kernels.pointwise",
    "mul_channel_scalars": "kernels.pointwise",
    "automorphism": "kernels.automorphism",
    "bconv": "kernels.bconv",
    "modup": "kernels.modup",
    "moddown": "kernels.moddown",
    "rescale": "kernels.rescale",
}

#: Slack for float round-off when checking that children fit their parent.
_TOLERANCE_S = 1e-9


class SpanRecorder:
    """Nested wall-clock spans of one single-threaded benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        #: One ``[name, start, end, parent]`` list per span, in open order;
        #: ``parent`` is the index of the enclosing span or -1.
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span(name): ...`` around a call into a layer."""
        return _SpanContext(self, name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return traced

    # ------------------------------------------------------------------ #

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> Tuple[List[float], List[str]]:
        """Per-span self time (duration minus child spans) and a list of
        violations where children cover more than their parent."""
        child_sum = [0.0] * len(self.spans)
        problems = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                continue
            p_name, p_start, p_end, _ = self.spans[parent]
            if start < p_start - _TOLERANCE_S or end > p_end + _TOLERANCE_S:
                problems.append(f"{name}#{i} lies outside {p_name}#{parent}")
            child_sum[parent] += end - start
        out = []
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - child_sum[i]
            if own < -_TOLERANCE_S:
                problems.append(
                    f"children of {name}#{i} sum to {child_sum[i]:.9f} s, "
                    f"more than its {end - start:.9f} s")
            out.append(own)
        return out, problems

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
        """Per span name: calls, total and self seconds; plus violations."""
        own, problems = self.self_times()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), self_s in zip(self.spans, own):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return dict(table), problems

    def tree_lines(self) -> List[str]:
        """Self/total time aggregated by call path, children indented
        under their parent (one line per distinct path)."""
        own, _ = self.self_times()
        paths: List[Tuple[str, ...]] = []
        agg: Dict[Tuple[str, ...], List[float]] = {}
        path_of: List[Tuple[str, ...]] = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            path = (path_of[parent] if parent >= 0 else ()) + (name,)
            path_of.append(path)
            if path not in agg:
                agg[path] = [0, 0.0, 0.0]
                paths.append(path)
            row = agg[path]
            row[0] += 1
            row[1] += end - start
            row[2] += own[i]
        lines = []
        for path in sorted(paths):
            calls, total, self_s = agg[path]
            indent = "  " * (len(path) - 1)
            lines.append(f"{indent}{path[-1]:<{48 - len(indent)}} "
                         f"calls {int(calls):>7d}  total {total:10.4f} s  "
                         f"self {self_s:10.4f} s")
        return lines

    def write(self, path: str) -> None:
        """Dump every span once as Chrome trace ``X`` events."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": i, "parent": parent,
                      "workload": self.workload}}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_index")

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._index = self._recorder.begin(self._name)

    def __exit__(self, *exc) -> None:
        self._recorder.end(self._index)


class TracingBackend:
    """A kernel backend that delegates to ``inner`` and records one span
    per kernel call (install with ``repro.kernels.set_backend``)."""

    def __init__(self, inner: object, recorder: SpanRecorder):
        self.name = inner.name
        self._inner = inner
        for method, span_name in KERNEL_SPANS.items():
            setattr(self, method,
                    recorder.wrap(getattr(inner, method), span_name))

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

"""Shared measurement helpers for the benchmark workloads."""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.kernels import get_backend, set_backend

from spans import SpanRecorder, TracingBackend


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; names must be declared in BENCHMARK.json.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Informational ``(name, value, unit)`` lines printed before the
    #: result line (the workload's own metric names, error rate, ...).
    notes: List[Tuple[str, object, str]] = field(default_factory=list)
    #: Checks that failed outside the counted operations (span nesting).
    problems: List[str] = field(default_factory=list)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def guarded(op: Callable[[], bool], what: str) -> bool:
    """Run one operation; an exception counts as a failed operation."""
    try:
        return bool(op())
    except Exception:  # one failed op must not end the run
        print(f"{what} raised:", file=sys.stderr)
        traceback.print_exc()
        return False


def timed_op(op: Callable[[int], bool], index: int, outcome: Outcome,
             what: str, recorder: Optional[SpanRecorder] = None) -> float:
    """Run ``op(index)`` once, inside a root span named ``what`` when a
    recorder is given; count it and return its wall time."""
    start = time.perf_counter()
    if recorder is None:
        ok = guarded(lambda: op(index), f"{what} {index}")
    else:
        with recorder.span(what):
            ok = guarded(lambda: op(index), f"{what} {index}")
    elapsed = time.perf_counter() - start
    outcome.count(ok)
    return elapsed


def python_loop() -> None:
    """Fixed interpreter-bound work: dict updates and small-int arithmetic
    (6-11 ms on a 2-core shared x86 VM, with the host's load)."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        table[i & 1023] = acc
        acc += table.get(i & 511, 1) * 3 % 7


_LIMBS = np.random.default_rng(0).integers(0, 2**31, size=(4, 1 << 13),
                                           dtype=np.int64)


def numpy_loop() -> None:
    """Fixed numpy-bound work at the scale of an N=2^13 RNS polynomial:
    modular products of four limbs and a real FFT, repeated (5-9 ms on a
    2-core shared x86 VM, with the host's load)."""
    for _ in range(20):
        product = (_LIMBS * _LIMBS) % 2147483647
        np.fft.rfft(product[0])


class HostReference:
    """Host speed, sampled by timing a fixed loop between operations.

    The benchmark's host (a few cores of a shared machine) runs up to 2x
    slower for seconds to minutes at a time, interpreter-bound code more
    than numpy-bound code, so raw operation times depend on the phases a
    run happened to catch.  Dividing each operation's time by the mean of
    the reference loops timed just before and after it gives its cost in
    reference loops, which repeats across runs.  ``kind`` names the loop
    whose kind of work matches the workload's: ``"python"`` or
    ``"numpy"``.
    """

    LOOPS = {"python": python_loop, "numpy": numpy_loop}

    def __init__(self, kind: str):
        self.loop = self.LOOPS[kind]
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - start)

    def costs(self, durations: List[float]) -> List[float]:
        """Each duration over the mean of the samples on either side of
        it; a sample must precede each duration and follow the last."""
        assert len(self.samples) == len(durations) + 1
        return [d / ((before + after) / 2) for d, before, after
                in zip(durations, self.samples, self.samples[1:])]


def closed_loop(op: Callable[[int], bool], seconds: float, outcome: Outcome,
                what: str, reference: HostReference) -> List[float]:
    """Call ``op(i)`` back to back for about ``seconds`` (at least once),
    with a reference sample before each call and after the last: another
    call starts only if it would end nearer the deadline, judged by the
    last call's latency.  Returns each call's latency."""
    latencies: List[float] = []
    start = time.perf_counter()
    while (not latencies or time.perf_counter() - start + latencies[-1] / 2
           < seconds):
        reference.sample()
        latencies.append(timed_op(op, len(latencies), outcome, what))
    reference.sample()
    return latencies


def median_setup(build: Callable[[], object], repeats: int
                 ) -> Tuple[object, float]:
    """Build ``repeats`` times; keep the last product, report the median
    build time."""
    times = []
    product = None
    for _ in range(repeats):
        product = None          # let the previous build be freed first
        t0 = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - t0)
    return product, float(np.median(times))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def latency_metrics(outcome: Outcome, latencies_s: List[float],
                    ops_per_s: float, setup_s: float,
                    reference: HostReference, op_times_s: List[float]
                    ) -> None:
    """Fill the end-to-end metrics every workload reports, and note the
    raw throughput, latencies and reference loop time beside them.

    ``op_cost_ref`` is the median of ``op_times_s`` in reference loops
    (see :class:`HostReference`); closed-loop workloads pass their
    latencies as ``op_times_s``.
    """
    ms = [v * 1e3 for v in latencies_s]
    outcome.metrics.update({
        "setup_s": setup_s,
        "op_cost_ref": float(np.median(reference.costs(op_times_s))),
        "peak_rss_mb": peak_rss_mb(),
    })
    outcome.notes += [
        ("ops_per_s", ops_per_s, "1/s"),
        ("op_min_ms", min(ms), "ms"),
        ("op_p50_ms", percentile(ms, 50), "ms"),
        ("ref_loop_ms", percentile(reference.samples, 50) * 1e3, "ms"),
    ]


class Tracing:
    """Switches every span seam of a traced run on and off together.

    Seams are the kernel-backend proxy and the instance wrappers added by
    :meth:`instrument`; while off, the plain backend and bound methods are
    back in place, so untraced operations run the same code as in an
    untraced run.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.plain_backend = get_backend()
        self.proxy = TracingBackend(self.plain_backend, recorder)
        self._swaps: List[tuple] = []

    def instrument(self, obj: object, methods: Dict[str, str]) -> None:
        """Trace ``obj``'s methods (this instance only) while on;
        ``methods`` maps attribute name -> span name."""
        for attr, name in methods.items():
            plain = getattr(obj, attr)
            self._swaps.append(
                (obj, attr, plain, self.recorder.wrap(plain, name)))

    def on(self) -> None:
        set_backend(self.proxy)
        for obj, attr, _, traced in self._swaps:
            setattr(obj, attr, traced)

    def off(self) -> None:
        set_backend(self.plain_backend)
        for obj, attr, plain, _ in self._swaps:
            setattr(obj, attr, plain)


def paired_ops(untraced_op: Callable[[int], bool],
               traced_op: Callable[[int], bool], pairs: int,
               outcome: Outcome, what: str, tracing: Tracing
               ) -> Tuple[float, float]:
    """Run each input once untraced, then once traced, alternating so that
    machine drift hits both sides alike.  Returns both total times.

    Callers run one untimed warm-up operation first, so that lazy caches
    are not charged to the first untraced operation.
    """
    untraced = traced = 0.0
    for i in range(pairs):
        tracing.off()
        untraced += timed_op(untraced_op, i, outcome, what)
        tracing.on()
        traced += timed_op(traced_op, i, outcome, what, tracing.recorder)
    tracing.off()
    return untraced, traced


def layer_metrics(outcome: Outcome, recorder: SpanRecorder) -> None:
    """``<span>.calls`` and ``<span>.self_s`` for every recorded span
    name, plus any nesting violations as problems."""
    table, problems = recorder.summary()
    for name, row in table.items():
        outcome.metrics[f"{name}.calls"] = row["calls"]
        outcome.metrics[f"{name}.self_s"] = row["self_s"]
    outcome.problems.extend(problems)


def overhead_metrics(outcome: Outcome, untraced_s: float,
                     traced_s: float) -> None:
    """Tracing overhead: the same operations timed traced minus untraced."""
    outcome.metrics["trace.overhead_s"] = traced_s - untraced_s
    outcome.metrics["trace.overhead_pct"] = (
        100.0 * (traced_s - untraced_s) / untraced_s)
    outcome.notes.append(("trace.untraced_ops_s", untraced_s, "s"))
    outcome.notes.append(("trace.traced_ops_s", traced_s, "s"))

"""serve-open-loop: a seeded steady trace played open-loop in real time
through ``SlotBatcher.pack`` and ``ServiceExecutor.run_batch``.

Requests are due at their trace arrival instants whether or not the
service keeps up, and each request's latency runs from its due time, so a
stall delays every later request.  The service batches by arrival window:
when a window closes it packs that window's requests and runs the
batches.  Batch contents therefore depend only on the trace, never on
timing, and every run of one seed does identical work.  The tiny rings
(CKKS n=512, BFV n=64) make per-call dispatch dominate ``repro.kernels``,
the opposite regime from ``ckks-helr``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import List, Optional

from repro.serve import SLA_BY_NAME, SlotBatcher, generate_trace
from repro.serve.functional import (
    BFVService,
    CKKSService,
    ServiceExecutor,
    expected_response,
)

import ckks_helr
from common import (
    HostReference,
    Outcome,
    Tracing,
    guarded,
    latency_metrics,
    layer_metrics,
    median_setup,
    overhead_metrics,
    percentile,
)

PROFILE = "steady"
RATE_RPS = 150.0
#: Arrival window the service batches over.
WINDOW_S = 0.2
#: Functional-scale widths: the CKKS service packs 256 slots at n=512.
CKKS_WIDTHS = (2, 4, 8)
BFV_WIDTHS = (2, 4)
SCHEME_MIX = (("ckks", 0.6), ("bfv", 0.4))
#: The modelled chip's SLA targets (1, 5 and 50 ms) are ~1000x beyond a
#: Python service; goodput uses the same classes scaled by this factor.
SLA_SCALE = 500.0
#: The service starts this long after the clock origin.
LEAD_S = 0.05
SETUP_REPEATS = 3
#: Requests in each phase of the traced run (fixed, so counts repeat),
#: after an untimed warm-up on the first few.
TRACED_REQUESTS = 600
WARMUP_REQUESTS = 30
#: Kind of reference loop that op_cost_ref divides each window's service
#: time by: tiny rings make the service dispatch-bound Python.
REFERENCE = "python"


@dataclass
class Playback:
    """What one open-loop playback of a trace observed."""

    latencies_s: List[float] = field(default_factory=list)
    #: Service time of each arrival window: packing and running its
    #: batches.
    window_s: List[float] = field(default_factory=list)
    waits_s: List[float] = field(default_factory=list)
    occupancy: List[int] = field(default_factory=list)
    used_slots: int = 0
    offered_slots: int = 0
    good: int = 0
    busy_s: float = 0.0
    lag_max_s: float = 0.0
    elapsed_s: float = 0.0


def build_executor(seed: int) -> ServiceExecutor:
    return ServiceExecutor(CKKSService(widths=CKKS_WIDTHS, seed=seed),
                           BFVService(n=64, seed=seed + 1))


def make_trace(seed: int, requests: int):
    return generate_trace(PROFILE, seed=seed, rate_rps=RATE_RPS,
                          n_requests=requests, ckks_widths=CKKS_WIDTHS,
                          bfv_widths=BFV_WIDTHS, scheme_mix=SCHEME_MIX)


def sla_limit_s(request) -> float:
    return SLA_BY_NAME[request.sla].latency_target_us * SLA_SCALE * 1e-6


def play(executor: ServiceExecutor, batcher: SlotBatcher, trace,
         outcome: Outcome, reference: Optional[HostReference] = None
         ) -> Playback:
    """Serve ``trace`` in real time; every response is checked.  With a
    ``reference``, a reference sample is taken before the first window
    and after each window is served, in the slack before the next one."""
    expected = {r.rid: expected_response(r) for r in trace}
    window_us = WINDOW_S * 1e6
    pb = Playback()
    if reference:
        reference.sample()
    origin = time.perf_counter() + LEAD_S
    for index, group in groupby(trace, key=lambda r: int(r.arrival_us
                                                          // window_us)):
        close = origin + (index + 1) * WINDOW_S
        delay = close - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        pb.lag_max_s = max(pb.lag_max_s, time.perf_counter() - close)
        pending = list(group)
        served_from = time.perf_counter()
        while pending:
            batch, pending = batcher.pack(pending)
            start = time.perf_counter()
            responses = {}

            def serve_batch():
                responses.update(executor.run_batch(batch))
                return True

            guarded(serve_batch, f"batch of {batch.occupancy}")
            end = time.perf_counter()
            pb.busy_s += end - start
            pb.occupancy.append(batch.occupancy)
            pb.used_slots += batch.total_width
            pb.offered_slots += batch.slots
            for r in batch.requests:
                due = origin + r.arrival_us * 1e-6
                latency = end - due
                ok = responses.get(r.rid) == expected[r.rid]
                outcome.count(ok)
                pb.latencies_s.append(latency)
                pb.waits_s.append(start - due)
                pb.good += ok and latency <= sla_limit_s(r)
        pb.window_s.append(time.perf_counter() - served_from)
        if reference:
            reference.sample()
    pb.elapsed_s = time.perf_counter() - origin
    return pb


def run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    executor, setup_s = median_setup(lambda: build_executor(seed),
                                     SETUP_REPEATS)
    batcher = SlotBatcher(slots=executor.slot_capacity())
    trace = make_trace(seed, max(1, round(RATE_RPS * seconds)))
    reference = HostReference(REFERENCE)
    pb = play(executor, batcher, trace, out, reference)
    goodput = pb.good / pb.elapsed_s
    latency_metrics(out, pb.latencies_s, len(pb.latencies_s) / pb.elapsed_s,
                    setup_s, reference, pb.window_s)
    out.notes += [
        ("serve_p50_ms", percentile(pb.latencies_s, 50) * 1e3, "ms"),
        ("serve_p99_ms", percentile(pb.latencies_s, 99) * 1e3, "ms"),
        ("serve_goodput_rps", goodput, "1/s"),
        ("offered_rps", RATE_RPS, "1/s"),
        ("requests", len(trace), "count"),
        ("batches", len(pb.occupancy), "count"),
        ("service_busy_fraction", pb.busy_s / pb.elapsed_s, "ratio"),
    ]
    return out


def instrument(executor: ServiceExecutor, batcher: SlotBatcher,
               tracing: Tracing) -> None:
    tracing.instrument(batcher, {"pack": "serve.pack"})
    tracing.instrument(executor, {"run_batch": "serve.run_batch"})
    tracing.instrument(executor.bfv, {"evaluate": "bfv.evaluate"})
    tracing.instrument(executor.ckks, {"evaluate": "ckks.service_evaluate"})
    ckks_helr.instrument(executor.ckks, tracing)


def run_traced(seed: int, tracing: Tracing) -> Outcome:
    out = Outcome()
    executor = build_executor(seed)
    batcher = SlotBatcher(slots=executor.slot_capacity())
    trace = make_trace(seed, TRACED_REQUESTS)
    play(executor, batcher, trace[:WARMUP_REQUESTS], out)
    untraced = play(executor, batcher, trace, out)
    instrument(executor, batcher, tracing)
    tracing.on()
    traced = play(executor, batcher, trace, out)
    tracing.off()
    layer_metrics(out, tracing.recorder)
    overhead_metrics(out, untraced.busy_s, traced.busy_s)
    out.metrics.update({
        "serve.queue_wait_ms_p50": percentile(traced.waits_s, 50) * 1e3,
        "serve.batch_occupancy_mean": (sum(traced.occupancy)
                                       / len(traced.occupancy)),
        "serve.slot_fill": traced.used_slots / traced.offered_slots,
        "serve.generator_lag_ms_max": traced.lag_max_s * 1e3,
    })
    return out

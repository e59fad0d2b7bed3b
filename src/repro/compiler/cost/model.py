"""The per-op cost model: one module, consumed by simulator and analyzer.

Calibration against the paper's published anchors (see DESIGN.md):

* compute: one Meta-OP occupies one core for ``n + 2`` cycles; waves of
  ``total_cores`` Meta-OPs issue back-to-back with a pattern-dependent
  inter-wave overhead (0.9 cycles for slot/channel/dnum-group patterns —
  pipeline fill/drain and operand staging; 0 for fully-streaming
  elementwise work).  This yields the ~0.85/0.89/0.87 NTT/Bconv/Decomp
  utilizations of Figure 7(b) and Table 7's compute-bound Pmult.
* on-chip: aggregate scratchpad bandwidth (66 TB/s) at 95% efficiency —
  this reproduces Table 7's bandwidth-bound Hadd.
* off-chip: 1 TB/s HBM; evaluation-key streaming makes Keyswitch/Cmult/
  Rotation HBM-bound at ~135 us, matching Table 7's ~7.2k op/s.
* compression: when the config carries an enabled
  :class:`~repro.hw.config.CompressionModel`, compressed HBM transfers
  charge fewer wire bytes plus an on-chip decompression compute charge
  (seed-expanded key halves, compressed ciphertexts) — the lever that
  flips the keyswitch-class ops from hbm- to compute-bound.

:func:`cost_op` is the *only* place these formulas live.
:meth:`repro.sim.simulator.CycleSimulator.time_op` and the static analyzer
(:mod:`repro.compiler.cost.analyzer`) both call it, so static predictions
match simulated charges exactly, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler.ops import HighLevelOp, OpKind
from repro.hw.config import AlchemistConfig
from repro.metaop.meta_op import AccessPattern

#: Inter-wave overhead cycles by access pattern (pipeline fill/drain).
WAVE_OVERHEAD: Dict[AccessPattern, float] = {
    AccessPattern.SLOTS: 0.9,
    AccessPattern.CHANNEL: 0.9,
    AccessPattern.DNUM_GROUP: 0.9,
    AccessPattern.ELEMENTWISE: 0.0,
}

#: On-chip bandwidth efficiency (bank conflicts, unaligned accesses).
SRAM_EFFICIENCY = 0.95

#: Energy model (14nm-class): dynamic energy per raw multiplier-lane cycle,
#: per on-chip byte, per HBM byte.  Calibrated so the Table 7 steady-state
#: mix dissipates near the paper's 77.9 W average.
ENERGY_PJ_PER_LANE_CYCLE = 1.6
ENERGY_PJ_PER_SRAM_BYTE = 0.6
ENERGY_PJ_PER_HBM_BYTE = 40.0
STATIC_WATTS = 8.0

#: Deterministic tie-break priority for bottleneck classification: an op
#: whose demands on two resources are *exactly* equal sits on a roofline
#: ridge point, and roofline convention classifies a ridge point as
#: bandwidth-limited — so the bandwidth resources win ties, scarcest
#: (off-chip) first.  Every consumer (OpTiming.bound,
#: SimulationReport.bottleneck, the static analyzer, the bench JSONs)
#: classifies through :func:`classify_bound`, so they can never disagree.
BOUND_PRIORITY: Tuple[str, ...] = ("hbm", "sram", "compute")


def classify_bound(compute_cycles: float, sram_cycles: float,
                   hbm_cycles: float) -> str:
    """Which resource bounds an op/program: ``compute``/``sram``/``hbm``,
    or ``free`` when it demands nothing.  Ties follow :data:`BOUND_PRIORITY`.
    """
    cycles = {
        "compute": compute_cycles,
        "sram": sram_cycles,
        "hbm": hbm_cycles,
    }
    worst = max(cycles.values())
    if worst == 0:
        return "free"
    for resource in BOUND_PRIORITY:
        if cycles[resource] == worst:
            return resource
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ResourceBound:
    """Cycle demand on the three pipelined resources, plus classification.

    The canonical carrier of the bottleneck rule: ``bottleneck`` resolves
    exact ties by :data:`BOUND_PRIORITY` (bandwidth wins, off-chip first),
    never by branch order.
    """

    compute_cycles: float = 0.0
    sram_cycles: float = 0.0
    hbm_cycles: float = 0.0

    @property
    def serialized_cycles(self) -> float:
        """Elapsed cycles when the op runs alone (the worst resource)."""
        return max(self.compute_cycles, self.sram_cycles, self.hbm_cycles)

    @property
    def bottleneck(self) -> str:
        return classify_bound(
            self.compute_cycles, self.sram_cycles, self.hbm_cycles)


#: The three pipelined hardware resources of the timing model.
RESOURCES: Tuple[str, ...] = ("compute", "sram", "hbm")


def resource_demand(timing: object) -> Dict[str, float]:
    """Cycles per resource ``timing`` occupies (resources it needs only).

    ``timing`` is anything carrying ``compute_cycles``/``sram_cycles``/
    ``hbm_cycles`` (an ``OpTiming``, ``OpCost`` or ``ResourceBound``).
    """
    needs = {r: getattr(timing, r + "_cycles") for r in RESOURCES}
    return {r: c for r, c in needs.items() if c > 0}


class ResourceFrontier:
    """In-order occupancy of the pipelined resources.

    Compute, on-chip bandwidth and HBM are independent resources; each op
    occupies the ones it needs in program order (no reordering), starting
    when every one of them is free.  A zero-cost op is a zero-duration
    marker at the frontier, ``max(free)``.
    """

    def __init__(self) -> None:
        self.free: Dict[str, float] = dict.fromkeys(RESOURCES, 0.0)

    def start(self, timing: object) -> float:
        """The cycle ``timing`` would start at; nothing is placed."""
        return max((self.free[r] for r in resource_demand(timing)),
                   default=max(self.free.values()))

    def place(self, timing: object) -> Tuple[float, float]:
        """Occupy the resources ``timing`` needs; returns ``(start, end)``."""
        start = self.start(timing)
        used = resource_demand(timing)
        for r, c in used.items():
            self.free[r] = start + c
        return start, start + max(used.values(), default=0.0)


@dataclass(frozen=True)
class OpCost:
    """Statically derived cost of one :class:`HighLevelOp` on a config.

    Exactly the numbers :meth:`CycleSimulator.time_op` charges — the
    simulator builds its ``OpTiming`` from this record.
    """

    compute_cycles: float = 0.0
    busy_core_cycles: float = 0.0
    sram_cycles: float = 0.0
    hbm_cycles: float = 0.0
    waves: int = 0
    meta_ops: int = 0
    patterns: Tuple[str, ...] = ()
    sram_bytes: int = 0
    hbm_bytes: int = 0

    @property
    def resource_bound(self) -> ResourceBound:
        return ResourceBound(self.compute_cycles, self.sram_cycles,
                             self.hbm_cycles)

    @property
    def serialized_cycles(self) -> float:
        return self.resource_bound.serialized_cycles

    @property
    def bound(self) -> str:
        return self.resource_bound.bottleneck

    def utilization(self, total_cores: int) -> float:
        """Core occupancy during this op's compute window (0 when idle)."""
        if self.compute_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_core_cycles
                   / (self.compute_cycles * total_cores))


def cost_op(op: HighLevelOp, config: AlchemistConfig) -> OpCost:
    """Resource cost of ``op`` on ``config`` (the one true cost formula).

    Keep this function's arithmetic order stable: the BENCH golden JSONs
    pin its floats bit-exactly.
    """
    compute_cycles = 0.0
    busy_core_cycles = 0.0
    total_waves = 0
    meta_ops = 0
    patterns: List[str] = []
    if op.kind == OpKind.EW_ADD:
        # addition-array-only streaming: 1 cycle per j elements per core
        lanes_total = config.total_cores * config.lanes_per_core
        waves = -(-op.num_elements() // lanes_total)
        compute_cycles = float(waves)
        busy_core_cycles = op.num_elements() / config.lanes_per_core
        total_waves = waves
        patterns.append(AccessPattern.ELEMENTWISE.value)
    else:
        for issue in op.meta_op_issues(config.lanes_per_core):
            waves = -(-issue.count // config.total_cores)
            overhead = WAVE_OVERHEAD[issue.op.pattern]
            compute_cycles += waves * (issue.op.core_cycles + overhead)
            busy_core_cycles += issue.count * issue.op.core_cycles
            total_waves += waves
            meta_ops += issue.count
            if issue.op.pattern.value not in patterns:
                patterns.append(issue.op.pattern.value)
    sram_bytes = op.sram_bytes(config.word_bytes)
    hbm_bytes = op.hbm_bytes()
    comp = config.compression
    if (comp is not None and comp.enabled and hbm_bytes > 0
            and op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE)):
        # Compressed transfer: fewer wire bytes on the HBM port, plus an
        # explicit on-chip decompression charge for the regenerated
        # bytes.  Key-tagged transfers (the evaluation-key streams the
        # ALC8xx analysis tracks) compress via seed expansion; untagged
        # transfers are ciphertext traffic.  An inert model never
        # reaches this branch, so compression-off costs stay
        # bit-identical (the BENCH goldens pin them).
        if op.key and comp.seed_expanded_keys:
            ratio = comp.key_ratio
        elif not op.key:
            ratio = comp.ciphertext_ratio
        else:
            ratio = 1.0
        wire_bytes = int(hbm_bytes * ratio)
        if wire_bytes < hbm_bytes:
            compute_cycles += ((hbm_bytes - wire_bytes)
                               / comp.expand_bytes_per_cycle)
            hbm_bytes = wire_bytes
    sram_bpc = config.onchip_bytes_per_cycle * SRAM_EFFICIENCY
    return OpCost(
        compute_cycles=compute_cycles,
        busy_core_cycles=busy_core_cycles,
        sram_cycles=sram_bytes / sram_bpc,
        hbm_cycles=hbm_bytes / config.hbm_bytes_per_cycle,
        waves=total_waves,
        meta_ops=meta_ops,
        patterns=tuple(patterns),
        sram_bytes=sram_bytes,
        hbm_bytes=hbm_bytes,
    )

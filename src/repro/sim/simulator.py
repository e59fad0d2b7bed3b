"""The cycle-level performance model.

The per-op cost formulas and calibration constants live in
:mod:`repro.compiler.cost.model` — one shared module consumed both here
(:meth:`CycleSimulator.time_op`) and by the static analyzer
(:mod:`repro.compiler.cost.analyzer`), so static predictions match
simulated charges exactly, by construction.  See that module's docstring
for the calibration anchors (Figure 7(b) utilizations, Table 7's
bandwidth-bound Hadd and ~135 us HBM-bound Keyswitch).

Bottleneck classification (per op and per program) goes through the shared
:func:`repro.compiler.cost.model.classify_bound`, whose documented
tie-break (``hbm > sram > compute`` on exact ties — a roofline ridge point
counts as bandwidth-bound) replaces the old branch-order behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.cost.model import (
    ENERGY_PJ_PER_HBM_BYTE,
    ENERGY_PJ_PER_LANE_CYCLE,
    ENERGY_PJ_PER_SRAM_BYTE,
    STATIC_WATTS,
    ResourceBound,
    ResourceFrontier,
    classify_bound,
    cost_op,
)
from repro.compiler.ops import HighLevelOp, Program
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


@dataclass
class OpTiming:
    """Resolved timing of one high-level operator."""

    op: HighLevelOp
    busy_core_cycles: float = 0.0
    compute_cycles: float = 0.0   # elapsed on the full machine
    sram_cycles: float = 0.0
    hbm_cycles: float = 0.0
    # Telemetry tallies (integer bookkeeping; no effect on the cycle math).
    waves: int = 0
    meta_ops: int = 0
    patterns: Tuple[str, ...] = ()

    @property
    def resource_bound(self) -> ResourceBound:
        return ResourceBound(self.compute_cycles, self.sram_cycles,
                             self.hbm_cycles)

    @property
    def bound(self) -> str:
        return classify_bound(self.compute_cycles, self.sram_cycles,
                              self.hbm_cycles)

    @property
    def serialized_cycles(self) -> float:
        return max(self.compute_cycles, self.sram_cycles, self.hbm_cycles)


@dataclass
class SimulationReport:
    """Workload-level results."""

    program_name: str
    config: AlchemistConfig
    timings: List[OpTiming] = field(default_factory=list)
    total_compute_cycles: float = 0.0
    total_sram_cycles: float = 0.0
    total_hbm_cycles: float = 0.0
    total_busy_core_cycles: float = 0.0

    # ------------------------------ totals ----------------------------- #

    @property
    def pipelined_cycles(self) -> float:
        """Steady-state execution: resources overlap perfectly."""
        return max(
            self.total_compute_cycles,
            self.total_sram_cycles,
            self.total_hbm_cycles,
        )

    @property
    def serialized_cycles(self) -> float:
        """Fully serialized execution (upper bound on latency)."""
        return sum(t.serialized_cycles for t in self.timings)

    @property
    def cycles(self) -> float:
        return self.pipelined_cycles

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.cycles_per_second

    def throughput_per_second(self, ops_per_program: int = 1) -> float:
        if self.cycles == 0:
            return float("inf")
        return ops_per_program * self.config.cycles_per_second / self.cycles

    @property
    def bottleneck(self) -> str:
        return classify_bound(self.total_compute_cycles,
                              self.total_sram_cycles, self.total_hbm_cycles)

    # ------------------------------ utilization ------------------------ #

    def utilization_by_class(self) -> Dict[str, float]:
        """Compute-resource utilization per operator class (Figure 7(b)):
        busy core-cycles over core capacity during that class's compute
        windows.  Data-movement and HBM ops are excluded (they do not
        occupy the cores)."""
        busy: Dict[str, float] = {}
        elapsed: Dict[str, float] = {}
        for t in self.timings:
            if t.compute_cycles <= 0:
                continue
            cls = t.op.operator_class
            busy[cls] = busy.get(cls, 0.0) + t.busy_core_cycles
            elapsed[cls] = elapsed.get(cls, 0.0) + t.compute_cycles
        cores = self.config.total_cores
        return {
            cls: min(1.0, busy[cls] / (elapsed[cls] * cores))
            for cls in busy
        }

    def overall_compute_utilization(self) -> float:
        """Weighted-average utilization across all compute windows."""
        busy = sum(t.busy_core_cycles for t in self.timings)
        elapsed = sum(t.compute_cycles for t in self.timings)
        if elapsed == 0:
            return 0.0
        return min(1.0, busy / (elapsed * self.config.total_cores))

    def hbm_gigabytes(self) -> float:
        return sum(t.op.hbm_bytes() for t in self.timings) / 1e9

    # ------------------------------ energy ----------------------------- #

    def energy_joules(self) -> float:
        """Dynamic + static energy of the workload (simple activity model)."""
        lane_cycles = self.total_busy_core_cycles * self.config.lanes_per_core
        sram_bytes = sum(
            t.op.sram_bytes(self.config.word_bytes) for t in self.timings)
        hbm_bytes = sum(t.op.hbm_bytes() for t in self.timings)
        dynamic = (
            lane_cycles * ENERGY_PJ_PER_LANE_CYCLE
            + sram_bytes * ENERGY_PJ_PER_SRAM_BYTE
            + hbm_bytes * ENERGY_PJ_PER_HBM_BYTE
        ) * 1e-12
        return dynamic + STATIC_WATTS * self.seconds

    def average_watts(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.energy_joules() / self.seconds

    # ------------------------------ timeline --------------------------- #

    def timeline(self) -> List[Tuple[str, float, float]]:
        """Resource-pipelined schedule: ``(label, start, end)`` per op.

        Models the decoupled access/execute pipeline on a
        :class:`~repro.compiler.cost.model.ResourceFrontier`: compute,
        on-chip bandwidth and HBM are three independent resources, each op
        occupies them in program order (no op reordering), and zero-cost
        ops are skipped.  Total makespan lands between the pipelined lower
        bound and the serialized upper bound.
        """
        frontier = ResourceFrontier()
        out = []
        for t in self.timings:
            start, end = frontier.place(t)
            if t.serialized_cycles > 0:
                out.append((t.op.label or t.op.kind.value, start, end))
        return out

    def scheduled_cycles(self) -> float:
        """Makespan of :meth:`timeline` (pipelined <= this <= serialized)."""
        timeline = self.timeline()
        return max((end for _, _, end in timeline), default=0.0)

    # ------------------------------ rendering -------------------------- #

    def summary(self) -> str:
        us = self.seconds * 1e6
        return (
            f"{self.program_name}: {self.cycles:,.0f} cycles = {us:,.1f} us "
            f"({self.bottleneck}-bound; compute {self.total_compute_cycles:,.0f}, "
            f"sram {self.total_sram_cycles:,.0f}, hbm {self.total_hbm_cycles:,.0f}; "
            f"util {self.overall_compute_utilization():.2f})"
        )


class CycleSimulator:
    """Times :class:`~repro.compiler.ops.Program` objects on a config.

    ``collector`` is an optional :class:`repro.telemetry.TraceCollector`;
    when absent (the default) no telemetry code runs and the timing math is
    exactly the untraced path.

    ``faults`` opts into the fault-injection layer: either a
    :class:`repro.sim.faults.FaultModel` (an injector is built from it,
    with ``policy`` — default retry-then-degrade) or a ready
    :class:`repro.sim.faults.FaultInjector`.  With ``faults=None`` (the
    default) no fault code runs at all; with an *empty* model the injector
    path runs but returns every timing object unchanged, so cycle counts
    and trace events stay bit-identical (the zero-overhead invariant).
    """

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT,
                 collector=None, faults=None, policy=None):
        self.config = config
        self.collector = collector
        self.injector = None
        if faults is not None:
            from repro.sim.faults.injector import FaultInjector
            from repro.sim.faults.policy import DEFAULT_POLICY

            if isinstance(faults, FaultInjector):
                self.injector = faults
            else:
                self.injector = FaultInjector(
                    faults, policy=policy or DEFAULT_POLICY,
                    config=config, collector=collector)

    # ------------------------------------------------------------------ #

    def time_op(self, op: HighLevelOp) -> OpTiming:
        cost = cost_op(op, self.config)
        return OpTiming(
            op=op,
            busy_core_cycles=cost.busy_core_cycles,
            compute_cycles=cost.compute_cycles,
            sram_cycles=cost.sram_cycles,
            hbm_cycles=cost.hbm_cycles,
            waves=cost.waves,
            meta_ops=cost.meta_ops,
            patterns=cost.patterns,
        )

    def time_program(self, program: Program) -> List[OpTiming]:
        """One :class:`OpTiming` per op, in program order (single pass)."""
        return [self.time_op(op) for op in program.ops]

    def run(self, program: Program,
            timings: Optional[List[OpTiming]] = None) -> SimulationReport:
        if self.injector is not None:
            return self._run_with_faults(program, timings)
        report = SimulationReport(program.name, self.config)
        collector = self.collector
        if timings is None:
            timings = self.time_program(program)
        if collector is not None:
            collector.begin_program(program.name, self.config)
            edges = program.dependency_edges()
        for i, t in enumerate(timings):
            report.timings.append(t)
            report.total_compute_cycles += t.compute_cycles
            report.total_sram_cycles += t.sram_cycles
            report.total_hbm_cycles += t.hbm_cycles
            report.total_busy_core_cycles += t.busy_core_cycles
            if collector is not None:
                collector.record_op(t.op, t, deps=edges.get(i, ()))
        if collector is not None:
            collector.end_program()
        return report

    def _run_with_faults(self, program: Program,
                         timings: Optional[List[OpTiming]]) -> SimulationReport:
        """The injected twin of :meth:`run`.

        Places every op on a :class:`~repro.compiler.cost.model.
        ResourceFrontier` (the trace collector's schedule) to know its
        start cycle (fault windows are time-addressed), hands it to the
        injector, and accumulates the *adjusted* timings.  With an empty
        fault model ``adjust`` returns the original objects, so the
        accumulation below is bit-identical to :meth:`run`.
        """
        injector = self.injector
        program = injector.prepare(program)
        if timings is None:
            timings = self.time_program(program)
        report = SimulationReport(program.name, self.config)
        collector = self.collector
        if collector is not None:
            collector.begin_program(program.name, self.config)
            edges = program.dependency_edges()
        frontier = ResourceFrontier()
        aborted = False
        for i, t in enumerate(timings):
            if aborted:
                injector.note_skipped(program.name)
                continue
            # adjustment preserves the used-resource set, so the start
            # computed here is where the adjusted op is placed
            adjusted = injector.adjust(program.name, i, t.op, t,
                                       frontier.start(t))
            if adjusted is None:
                aborted = True
                continue
            report.timings.append(adjusted)
            report.total_compute_cycles += adjusted.compute_cycles
            report.total_sram_cycles += adjusted.sram_cycles
            report.total_hbm_cycles += adjusted.hbm_cycles
            report.total_busy_core_cycles += adjusted.busy_core_cycles
            injector.observe_end(frontier.place(adjusted)[1])
            if collector is not None:
                collector.record_op(adjusted.op, adjusted,
                                    deps=edges.get(i, ()))
        if collector is not None:
            collector.end_program()
        return report

    # ------------------------------------------------------------------ #

    def run_concurrent(self, programs: List[Program]) -> SimulationReport:
        """Time several workloads sharing the machine (cross-scheme mode).

        This is the paper's headline scenario: arithmetic- and logic-FHE
        programs time-share one Alchemist.  Because every core runs every
        Meta-OP, co-scheduling is trivial — the unified report simply
        accumulates all programs' resource demands (no partitioning losses,
        unlike the modular baselines, which would idle whole engine classes
        while the "wrong" scheme runs).
        """
        combined = Program(
            "+".join(p.name for p in programs),
            description="concurrent cross-scheme mix",
        )
        for program in programs:
            combined.extend(program.ops)
        return self.run(combined)

    def operator_class_cycles(
            self, program: Program,
            timings: Optional[List[OpTiming]] = None) -> Dict[str, float]:
        """Compute-cycles per operator class — the Figure 1 operator-ratio
        breakdown (NTT / Bconv / DecompPolyMult / elementwise).  Pass an
        existing :meth:`time_program` result to avoid re-timing every op."""
        if timings is None:
            timings = self.time_program(program)
        out: Dict[str, float] = {}
        for t in timings:
            if t.compute_cycles > 0:
                cls = t.op.operator_class
                out[cls] = out.get(cls, 0.0) + t.compute_cycles
        return out

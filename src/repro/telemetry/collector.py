"""The telemetry sink: collects events and computes aggregate views.

A :class:`TraceCollector` is handed to the producers, which call its
``record_*`` methods.  Producers hold ``collector=None`` by default and
guard every call with ``if collector is not None`` — with tracing off no
telemetry code runs at all, keeping the calibration path bit-identical.

Event start/end cycles come from the same
:class:`~repro.compiler.cost.model.ResourceFrontier` as
:meth:`repro.sim.simulator.SimulationReport.timeline`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compiler.cost.model import RESOURCES, ResourceFrontier
from repro.telemetry.events import (
    FaultEvent,
    MemoryEvent,
    MetaOpEvent,
    TraceEvent,
)


class TraceCollector:
    """Accumulates trace events across one or more simulated programs."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.meta_op_events: List[MetaOpEvent] = []
        self.memory_events: List[MemoryEvent] = []
        #: Fault injections/recoveries (from repro.sim.faults injectors).
        self.fault_events: List[FaultEvent] = []
        self.pass_telemetry: List[object] = []
        #: LintReports recorded by the verify layer (PassManager lint gate,
        #: ``repro lint`` runs handed this collector).
        self.lint_reports: List[object] = []
        #: CostReports recorded by the static analyzer (``repro analyze``
        #: runs handed this collector).
        self.cost_reports: List[object] = []
        #: ServeReports recorded by the serving layer (``repro serve``
        #: runs handed this collector).
        self.serving_reports: List[object] = []
        #: program name -> (total_cores, cycles_per_second) at record time.
        self.program_configs: Dict[str, Dict[str, float]] = {}
        self._program: Optional[str] = None
        self._config = None
        self._frontier = ResourceFrontier()
        self._index = 0

    # ------------------------------ program scope ---------------------- #

    def begin_program(self, name: str, config) -> None:
        """Open a program scope; op events are attributed to ``name``."""
        if self._program is not None:
            raise RuntimeError(
                f"program {self._program!r} is still open; call end_program"
            )
        self._program = name
        self._config = config
        self._frontier = ResourceFrontier()
        self._index = 0
        self.program_configs[name] = {
            "total_cores": config.total_cores,
            "cycles_per_second": config.cycles_per_second,
        }

    def end_program(self) -> None:
        self._program = None
        self._config = None

    # ------------------------------ producers -------------------------- #

    def record_op(self, op, timing, deps=()) -> TraceEvent:
        """Record one timed high-level op (called by the simulator).

        ``deps`` are the producer op indices from the program's dataflow
        graph (:meth:`repro.compiler.ops.Program.dependency_edges`).
        """
        if self._program is None:
            raise RuntimeError("record_op outside begin_program/end_program")
        start, end = self._frontier.place(timing)
        event = TraceEvent(
            program=self._program,
            index=self._index,
            name=op.label or op.kind.value,
            kind=op.kind.value,
            operator_class=op.operator_class,
            patterns=timing.patterns,
            start_cycle=start,
            end_cycle=end,
            compute_cycles=timing.compute_cycles,
            sram_cycles=timing.sram_cycles,
            hbm_cycles=timing.hbm_cycles,
            busy_core_cycles=timing.busy_core_cycles,
            waves=timing.waves,
            meta_ops=timing.meta_ops,
            sram_bytes=op.sram_bytes(self._config.word_bytes),
            hbm_bytes=op.hbm_bytes(),
            bound=timing.bound,
            args=op.trace_args(),
            deps=tuple(deps),
        )
        self.events.append(event)
        self._index += 1
        return event

    def record_meta_op(self, op, count: int = 1) -> None:
        """Record Meta-OP executions (called by ``MetaOpExecutor``)."""
        self.meta_op_events.append(
            MetaOpEvent(
                j=op.j,
                n=op.n,
                pattern=op.pattern.value,
                count=count,
                core_cycles=count * op.core_cycles,
                raw_mults=count * op.raw_mults,
                raw_adds=count * op.raw_adds,
            )
        )

    def record_memory(self, component: str, num_bytes: int) -> None:
        """Record one memory-model transfer (HBM / scratchpad hooks)."""
        self.memory_events.append(MemoryEvent(component, num_bytes))

    def record_fault(self, event: FaultEvent) -> None:
        """Record one fault injection/recovery (from a FaultInjector)."""
        self.fault_events.append(event)

    def record_pass(self, telemetry) -> None:
        """Record one compiler-pass telemetry record (from PassManager)."""
        self.pass_telemetry.append(telemetry)

    def record_diagnostics(self, report) -> None:
        """Record one static-verifier LintReport (from the lint gate)."""
        self.lint_reports.append(report)

    def record_cost_report(self, report) -> None:
        """Record one static-analyzer CostReport (from ``repro analyze``)."""
        self.cost_reports.append(report)

    def record_serving_report(self, report) -> None:
        """Record one ServeReport (from a ServingSimulator run)."""
        self.serving_reports.append(report)

    # ------------------------------ aggregate views --------------------- #

    def makespan_cycles(self, program: Optional[str] = None) -> float:
        events = self._select(program)
        return max((e.end_cycle for e in events), default=0.0)

    def component_utilization(
        self, program: Optional[str] = None
    ) -> Dict[str, float]:
        """Compute-core utilization per operator class (Figure 7(b) view)."""
        busy: Dict[str, float] = {}
        elapsed_cores: Dict[str, float] = {}
        for e in self._select(program):
            if e.compute_cycles <= 0:
                continue
            cores = self.program_configs[e.program]["total_cores"]
            busy[e.operator_class] = (
                busy.get(e.operator_class, 0.0) + e.busy_core_cycles)
            elapsed_cores[e.operator_class] = (
                elapsed_cores.get(e.operator_class, 0.0)
                + e.compute_cycles * cores)
        return {
            cls: min(1.0, busy[cls] / elapsed_cores[cls]) for cls in busy
        }

    def bound_histogram(self, program: Optional[str] = None) -> Dict[str, int]:
        """How many ops land in each roofline regime."""
        out: Dict[str, int] = {}
        for e in self._select(program):
            out[e.bound] = out.get(e.bound, 0) + 1
        return out

    def bound_cycles(self, program: Optional[str] = None) -> Dict[str, float]:
        """Critical-resource cycles per roofline regime."""
        out: Dict[str, float] = {}
        for e in self._select(program):
            out[e.bound] = out.get(e.bound, 0.0) + e.duration_cycles
        return out

    def bandwidth_occupancy(
        self, program: Optional[str] = None
    ) -> Dict[str, float]:
        """Fraction of the makespan each resource is busy."""
        makespan = self.makespan_cycles(program)
        if makespan == 0:
            return {r: 0.0 for r in RESOURCES}
        busy = {r: 0.0 for r in RESOURCES}
        for e in self._select(program):
            busy["compute"] += e.compute_cycles
            busy["sram"] += e.sram_cycles
            busy["hbm"] += e.hbm_cycles
        return {r: min(1.0, busy[r] / makespan) for r in RESOURCES}

    def meta_op_totals(self) -> Dict[str, int]:
        """Aggregate Meta-OP executor activity."""
        totals = {"meta_ops": 0, "core_cycles": 0, "raw_mults": 0,
                  "raw_adds": 0}
        for e in self.meta_op_events:
            totals["meta_ops"] += e.count
            totals["core_cycles"] += e.core_cycles
            totals["raw_mults"] += e.raw_mults
            totals["raw_adds"] += e.raw_adds
        return totals

    def memory_totals(self) -> Dict[str, int]:
        """Bytes per memory component across all recorded transfers."""
        out: Dict[str, int] = {}
        for e in self.memory_events:
            out[e.component] = out.get(e.component, 0) + e.num_bytes
        return out

    def fault_totals(self) -> Dict[str, int]:
        """How many fault events of each kind landed on the timeline."""
        out: Dict[str, int] = {}
        for e in self.fault_events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready roll-up of everything the collector has seen."""
        programs = {}
        for name in self.program_configs:
            events = self._select(name)
            programs[name] = {
                "num_ops": len(events),
                "makespan_cycles": self.makespan_cycles(name),
                "bound_histogram": self.bound_histogram(name),
                "bound_cycles": self.bound_cycles(name),
                "component_utilization": self.component_utilization(name),
                "bandwidth_occupancy": self.bandwidth_occupancy(name),
                "waves": sum(e.waves for e in events),
                "meta_ops": sum(e.meta_ops for e in events),
                "sram_bytes": sum(e.sram_bytes for e in events),
                "hbm_bytes": sum(e.hbm_bytes for e in events),
            }
        out: Dict[str, object] = {
            "programs": programs,
            "meta_op_totals": self.meta_op_totals(),
            "memory_totals": self.memory_totals(),
            "num_events": len(self.events),
        }
        if self.lint_reports:
            # only present when the verify layer ran, so summaries from
            # lint-free runs are byte-identical to before the linter existed
            out["lint"] = {
                "programs": len(self.lint_reports),
                "errors": sum(len(r.errors) for r in self.lint_reports),
                "warnings": sum(len(r.warnings) for r in self.lint_reports),
                "notes": sum(len(r.notes) for r in self.lint_reports),
                "reports": [r.as_dict() for r in self.lint_reports],
            }
        if self.cost_reports:
            # same convention: only present when the static analyzer ran
            out["analyze"] = {
                "programs": len(self.cost_reports),
                "reports": [r.as_dict() for r in self.cost_reports],
            }
        if self.serving_reports:
            # same convention: only present when the serving layer ran
            out["serving"] = {
                "runs": len(self.serving_reports),
                "reports": [r.as_dict() for r in self.serving_reports],
            }
        if self.fault_events:
            # same convention: only present when faults were injected, so
            # fault-free summaries stay byte-identical to the pre-fault era
            out["faults"] = {
                "num_events": len(self.fault_events),
                "by_kind": self.fault_totals(),
                "events": [e.as_dict() for e in self.fault_events],
            }
        return out

    # ------------------------------------------------------------------ #

    def _select(self, program: Optional[str]) -> List[TraceEvent]:
        if program is None:
            return self.events
        return [e for e in self.events if e.program == program]

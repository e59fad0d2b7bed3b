"""Cycle-level simulator for Alchemist (paper Section 6 methodology).

Drives the :mod:`repro.hw` machine model with :mod:`repro.compiler`
programs.  Per high-level operator the simulator computes compute-limited,
on-chip-bandwidth-limited and HBM-limited cycle counts; the workload time is
the steady-state (pipelined) maximum of the three resource totals, which is
how a throughput-oriented accelerator with decoupled load/compute/store
behaves.  Utilization accounting reproduces Figure 7(b).

:mod:`repro.sim.engine` adds the event-driven view: dependency-aware
scheduling over the same per-op timings, plus multi-tenant mixes with
pluggable dispatch policies.

:mod:`repro.sim.faults` adds seeded fault injection (HBM brown-outs, core
dropout, scratchpad loss, transient op failures) with resilience policies
over both simulators — timing-only by contract; functional FHE results are
never touched.
"""

from repro.sim.engine import (
    EventDrivenSimulator,
    MixReport,
    POLICIES,
    ScheduledOp,
    TenantStats,
)
from repro.sim.faults import (
    FaultInjector,
    FaultModel,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.sim.simulator import (
    CycleSimulator,
    OpTiming,
    SimulationReport,
)

__all__ = [
    "CycleSimulator",
    "EventDrivenSimulator",
    "FaultInjector",
    "FaultModel",
    "MixReport",
    "ResiliencePolicy",
    "ResilienceReport",
    "OpTiming",
    "POLICIES",
    "ScheduledOp",
    "SimulationReport",
    "TenantStats",
]

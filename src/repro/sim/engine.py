"""Event-driven execution engine over the dataflow-graph IR.

:class:`EventDrivenSimulator` schedules operators across the three
pipelined resources of the timing model (compute, on-chip bandwidth, HBM
bandwidth) while honoring the program's def/use dependency edges — the
dynamic counterpart of :meth:`SimulationReport.timeline`, which replays
ops strictly in program order.  For a dependency-free program under FCFS
the engine reproduces the timeline exactly; with real edges it additionally
stalls consumers until their producers finish.

It also runs *mixes*: several tenant programs time-sharing one Alchemist
(the paper's cross-scheme scenario, Section 6.5) under a pluggable
dispatch policy — FCFS, round-robin, or priority — reporting per-tenant
latency, slowdown versus running alone, and a Jain fairness index.

Bounds (hold for every policy and dependency structure):

* ``makespan >= pipelined_cycles`` — each resource serves ops serially, so
  its final free time is at least its total demand;
* ``makespan <= serialized_cycles`` — every dispatched op starts no later
  than the current global frontier, so each op extends the frontier by at
  most its own serialized duration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.compiler.cost.model import RESOURCES, ResourceBound, resource_demand
from repro.compiler.ops import Program
from repro.compiler.verify.diagnostics import Diagnostic
from repro.compiler.verify.hazards import schedule_diagnostics
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.simulator import CycleSimulator, OpTiming

if TYPE_CHECKING:  # runtime import would be circular via repro.sim.faults
    from repro.sim.faults.injector import FaultInjector

#: Dispatch policies understood by :meth:`EventDrivenSimulator.run_mix`.
POLICIES = ("fcfs", "round-robin", "priority")


@dataclass(frozen=True)
class ScheduledOp:
    """One dispatched operator in the event schedule."""

    tenant: str
    index: int                       # op index within the tenant's program
    label: str
    kind: str
    start: float
    end: float
    compute_cycles: float
    sram_cycles: float
    hbm_cycles: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant outcome of a mix run."""

    name: str
    num_ops: int
    finish_cycles: float             # when the tenant's last op completed
    solo_cycles: float               # event makespan running alone

    @property
    def slowdown(self) -> float:
        """Completion time relative to running alone (>= 1 under sharing)."""
        if self.solo_cycles == 0:
            return 1.0
        return self.finish_cycles / self.solo_cycles


@dataclass
class MixReport:
    """Result of one event-driven run (single program or multi-tenant)."""

    policy: str
    config: AlchemistConfig
    makespan_cycles: float
    schedule: List[ScheduledOp] = field(default_factory=list)
    tenants: List[TenantStats] = field(default_factory=list)
    #: Hazard-audit findings (only populated by ``run_mix(audit=True)``).
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.makespan_cycles / self.config.cycles_per_second

    def resource_cycles(self) -> ResourceBound:
        """Aggregate demand the schedule placed on each pipelined resource."""
        return ResourceBound(
            compute_cycles=sum(s.compute_cycles for s in self.schedule),
            sram_cycles=sum(s.sram_cycles for s in self.schedule),
            hbm_cycles=sum(s.hbm_cycles for s in self.schedule),
        )

    @property
    def bottleneck(self) -> str:
        """Which resource bounds the mix (shared deterministic tie-break —
        identical classification to the simulator and static analyzer)."""
        return self.resource_cycles().bottleneck

    def tenant(self, name: str) -> TenantStats:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)

    def fairness_index(self) -> float:
        """Jain's index over per-tenant progress rates ``solo/finish``.

        1.0 = perfectly even slowdowns; 1/n = one tenant got everything.
        """
        rates = [
            t.solo_cycles / t.finish_cycles if t.finish_cycles else 1.0
            for t in self.tenants
        ]
        if not rates:
            return 1.0
        num = sum(rates) ** 2
        den = len(rates) * sum(x * x for x in rates)
        return num / den if den else 1.0

    def summary(self) -> str:
        us = self.seconds * 1e6
        lines = [
            f"mix[{self.policy}]: {self.makespan_cycles:,.0f} cycles = "
            f"{us:,.1f} us ({self.bottleneck}-bound), "
            f"{len(self.schedule)} ops, "
            f"fairness {self.fairness_index():.3f}"
        ]
        cps = self.config.cycles_per_second
        for t in self.tenants:
            lines.append(
                f"  {t.name}: {t.num_ops} ops, latency "
                f"{t.finish_cycles / cps * 1e6:,.1f} us "
                f"(solo {t.solo_cycles / cps * 1e6:,.1f} us, "
                f"slowdown {t.slowdown:.2f}x)"
            )
        return "\n".join(lines)


class EventDrivenSimulator:
    """Schedules one or more programs over the three-resource machine.

    Per-op resource demands come from :class:`CycleSimulator.time_op`
    (identical cycle math to the calibrated report path); this class only
    decides *when* each op runs.
    """

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT,
                 simulator: Optional[CycleSimulator] = None):
        self.config = config
        self.simulator = simulator or CycleSimulator(config)
        self._makespan_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------ #

    def makespan(self, program: Program,
                 cache_key: Optional[str] = None) -> float:
        """Fault-free event-driven makespan, optionally memoized.

        The serving layer (:mod:`repro.serve`) dispatches thousands of
        batches whose programs recur in a handful of shapes; ``cache_key``
        names the shape so each is scheduled once per simulator instance.
        Callers own key uniqueness — two programs sharing a key must be
        identical.  Uncached calls behave exactly like ``run(...)``.
        """
        if cache_key is not None and cache_key in self._makespan_cache:
            return self._makespan_cache[cache_key]
        value = self.run(program).makespan_cycles
        if cache_key is not None:
            self._makespan_cache[cache_key] = value
        return value

    def run(self, program: Program,
            timings: Optional[List[OpTiming]] = None,
            audit: bool = False,
            injector: Optional["FaultInjector"] = None) -> MixReport:
        """Event-driven makespan of a single program (FCFS dispatch)."""
        return self.run_mix([program], policy="fcfs",
                            timings_by_tenant=[timings] if timings else None,
                            audit=audit, injector=injector)

    def run_mix(self, programs: Sequence[Program], policy: str = "fcfs",
                priorities: Optional[Dict[str, int]] = None,
                timings_by_tenant=None, audit: bool = False,
                injector: Optional["FaultInjector"] = None) -> MixReport:
        """Schedule ``programs`` sharing the machine under ``policy``.

        ``priorities`` (policy="priority") maps tenant name -> priority;
        higher dispatches first.  Tenant names are the program names,
        suffixed ``#k`` when a name repeats in the mix.

        ``audit=True`` re-checks the produced schedule against each
        program's dependency edges via the static verifier's hazard
        detector (RAW/WAW/WAR ordering, spill/fill pairing, coverage);
        findings land in :attr:`MixReport.diagnostics`.  The audit is
        read-only — timings and the schedule itself are unaffected.

        ``injector`` (a :class:`repro.sim.faults.FaultInjector`) applies a
        fault campaign to the shared run: programs are first re-spilled via
        ``injector.prepare`` (identity without scratchpad loss — skipped
        when explicit ``timings_by_tenant`` are supplied, since those were
        timed against the caller's programs), each dispatched op is
        adjusted, and aborted tenants stop executing while their remaining
        ops drain as skipped.  Per-tenant *solo* baselines stay fault-free,
        so :attr:`TenantStats.slowdown` isolates sharing contention from
        fault inflation.
        """
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        if injector is not None and timings_by_tenant is None:
            programs = [injector.prepare(p) for p in programs]
        names = self._tenant_names(programs)
        if timings_by_tenant is None:
            timings_by_tenant = [
                self.simulator.time_program(p) for p in programs]
        schedule, makespan = self._schedule(
            names, programs, timings_by_tenant, policy, priorities or {},
            injector=injector)
        if injector is not None:
            injector.observe_end(makespan)
        tenants = []
        for name, program, timings in zip(names, programs, timings_by_tenant):
            if len(programs) == 1:
                solo = makespan
            else:
                _, solo = self._schedule(
                    [name], [program], [timings], "fcfs", {})
            finish = max(
                (s.end for s in schedule if s.tenant == name), default=0.0)
            tenants.append(TenantStats(
                name=name, num_ops=len(program.ops),
                finish_cycles=finish, solo_cycles=solo))
        diagnostics: List[Diagnostic] = []
        if audit:
            for name, program in zip(names, programs):
                tenant_sched = [s for s in schedule if s.tenant == name]
                diagnostics.extend(
                    replace(d, analysis="hazards", program=name)
                    for d in schedule_diagnostics(program, tenant_sched))
        return MixReport(policy=policy, config=self.config,
                         makespan_cycles=makespan, schedule=schedule,
                         tenants=tenants, diagnostics=diagnostics)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _tenant_names(programs: Sequence[Program]) -> List[str]:
        counts: Dict[str, int] = {}
        names = []
        for p in programs:
            k = counts.get(p.name, 0)
            counts[p.name] = k + 1
            names.append(p.name if k == 0 else f"{p.name}#{k}")
        return names

    def _schedule(self, names, programs, timings_by_tenant, policy,
                  priorities,
                  injector: Optional["FaultInjector"] = None,
                  ) -> Tuple[List[ScheduledOp], float]:
        """Event-driven list scheduling across all tenants."""
        n_tenants = len(programs)
        edges = [p.dependency_edges() for p in programs]
        succs: List[Dict[int, List[int]]] = []
        indeg: List[List[int]] = []
        finish: List[List[float]] = []
        ready: List[List[int]] = []
        for t, p in enumerate(programs):
            s: Dict[int, List[int]] = {}
            d = [0] * len(p.ops)
            for i, preds in edges[t].items():
                d[i] = len(preds)
                for q in preds:
                    s.setdefault(q, []).append(i)
            succs.append(s)
            indeg.append(d)
            finish.append([0.0] * len(p.ops))
            heap = [i for i in range(len(p.ops)) if d[i] == 0]
            heapq.heapify(heap)
            ready.append(heap)
        free = dict.fromkeys(RESOURCES, 0.0)
        schedule: List[ScheduledOp] = []
        makespan = 0.0
        rr_next = 0                              # round-robin pointer
        remaining = sum(len(p.ops) for p in programs)
        while remaining:
            t = self._pick_tenant(
                names, ready, policy, priorities, rr_next)
            if policy == "round-robin":
                rr_next = (t + 1) % n_tenants
            i = heapq.heappop(ready[t])
            timing = timings_by_tenant[t][i]
            dep_ready = max(
                (finish[t][q] for q in edges[t].get(i, ())), default=0.0)
            if injector is not None and names[t] in injector.aborted:
                # tenant abandoned: drain the op unexecuted so successors
                # release and the loop terminates; nothing is scheduled
                injector.note_skipped(names[t])
                finish[t][i] = dep_ready
                for sidx in succs[t].get(i, ()):
                    indeg[t][sidx] -= 1
                    if indeg[t][sidx] == 0:
                        heapq.heappush(ready[t], sidx)
                remaining -= 1
                continue
            used = resource_demand(timing)
            if injector is not None:
                # provisional start is valid on the adjusted timing too:
                # adjustments preserve the set of used resources
                provisional = (max(dep_ready, max(free[r] for r in used))
                               if used else dep_ready)
                adjusted = injector.adjust(
                    names[t], i, programs[t].ops[i], timing, provisional)
                if adjusted is None:             # policy aborted the tenant
                    finish[t][i] = provisional
                    for sidx in succs[t].get(i, ()):
                        indeg[t][sidx] -= 1
                        if indeg[t][sidx] == 0:
                            heapq.heappush(ready[t], sidx)
                    remaining -= 1
                    continue
                if adjusted is not timing:
                    timing = adjusted
                    used = resource_demand(timing)
            if used:
                start = max(dep_ready,
                            max(free[r] for r in used))
                end = start + max(used.values())
                for r in used:
                    free[r] = start + used[r]
            else:                                # zero-duration marker
                start = end = dep_ready
            finish[t][i] = end
            makespan = max(makespan, end)
            op = programs[t].ops[i]
            schedule.append(ScheduledOp(
                tenant=names[t], index=i,
                label=op.label or op.kind.value, kind=op.kind.value,
                start=start, end=end,
                compute_cycles=timing.compute_cycles,
                sram_cycles=timing.sram_cycles,
                hbm_cycles=timing.hbm_cycles,
            ))
            for sidx in succs[t].get(i, ()):
                indeg[t][sidx] -= 1
                if indeg[t][sidx] == 0:
                    heapq.heappush(ready[t], sidx)
            remaining -= 1
        return schedule, makespan

    @staticmethod
    def _pick_tenant(names, ready, policy, priorities, rr_next) -> int:
        """Index of the tenant to dispatch from next (deterministic)."""
        candidates = [t for t in range(len(ready)) if ready[t]]
        if not candidates:
            raise RuntimeError(
                "no dispatchable op but work remains — dependency deadlock "
                "(did a pass introduce a cross-tenant cycle?)")
        if policy == "priority":
            return max(candidates,
                       key=lambda t: (priorities.get(names[t], 0), -t))
        if policy == "round-robin":
            for k in range(len(ready)):
                t = (rr_next + k) % len(ready)
                if ready[t]:
                    return t
        # fcfs: lowest pending op index wins, tenant order breaks ties
        return min(candidates, key=lambda t: (ready[t][0], t))

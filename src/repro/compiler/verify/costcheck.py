"""Static cost diagnostics: the ALC6xx family.

Runs the abstract cost interpretation of
:mod:`repro.compiler.cost.analyzer` over the program and turns its facts
into advisory diagnostics:

* ``ALC601`` — an HBM-bound op sits on the static critical path: off-chip
  bandwidth directly lengthens the shortest possible schedule (the
  paper's ~135 us keyswitch bound is exactly this finding).
* ``ALC602`` — the peak live-value scratchpad occupancy exceeds the
  configured on-chip capacity.  Where some op's own footprint overflows,
  ``SpillInsertionPass`` spills around it and the note quantifies the
  extra HBM cycles; otherwise every op fits and the excess is values held
  live across ops, which no pass spills.
* ``ALC603`` — a compute op occupies less than ``utilization_threshold``
  of the cores during its compute window (lane under-utilization; batch
  or pack more to fill the machine).
* ``ALC604`` — an adjacent single-consumer elementwise pair is fusable
  and the cost model proves the fusion profitable, quantifying the saved
  cycles (``repro simulate --fuse`` / ``FuseElementwisePass`` realises
  it).
* ``ALC605`` — the configured :class:`~repro.hw.config.CompressionModel`
  changes an op's binding resource away from HBM: seed-expanded key (or
  compressed ciphertext) transfers move fewer bytes off-chip, and the
  on-chip expansion charge makes the op compute-bound instead.  Only
  emitted when a compression model is active.

All are NOTE severity: they describe performance, not correctness,
so shipped workloads stay lint-clean while ``repro analyze``/``repro lint
--notes`` surface them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.compiler.cost.analyzer import CostReport, analyze_program
from repro.compiler.cost.model import cost_op
from repro.compiler.ops import Program
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic


class CostAnalysis(Analysis):
    """Cost-model-backed performance advisories (ALC601..ALC604)."""

    name = "cost"

    def __init__(self, utilization_threshold: float = 0.5) -> None:
        if not 0.0 < utilization_threshold <= 1.0:
            raise ValueError("utilization_threshold must be in (0, 1]")
        self.utilization_threshold = utilization_threshold

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        try:
            report = analyze_program(program, ctx.config)
        except Exception:
            # ill-formed programs (bad shapes, cyclic graphs) are the
            # structure analysis's findings, not ours
            return []
        out: List[Diagnostic] = []
        out.extend(self._hbm_on_critical_path(report))
        out.extend(self._occupancy_overflow(report, ctx))
        out.extend(self._lane_underutilization(report, ctx))
        out.extend(self._fusion_opportunities(program, ctx))
        out.extend(self._compression_flips(program, report, ctx))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _hbm_on_critical_path(report: CostReport) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        hz = report.config.cycles_per_second
        for row in report.rows:
            if not row.critical or row.bound != "hbm":
                continue
            if row.cost.hbm_cycles <= 0:
                continue
            us = row.cost.hbm_cycles / hz * 1e6
            out.append(Diagnostic(
                "ALC601",
                f"{row.label}: HBM-bound ({row.cost.hbm_bytes / 1e6:.1f} MB "
                f"off-chip = {us:.1f} us) on the static critical path — "
                f"off-chip bandwidth lower-bounds this program's latency",
                op_index=row.index, op_label=row.op.label))
        return out

    @staticmethod
    def _occupancy_overflow(report: CostReport,
                            ctx: AnalysisContext) -> List[Diagnostic]:
        res = report.residency
        capacity = ctx.config.total_onchip_bytes
        if res is None or res.peak_bytes <= capacity:
            return []
        index = res.peak_index
        label = report.rows[index].op.label if index is not None else ""
        demand = (f"peak scratchpad demand {res.peak_bytes / 1e6:.1f} MB "
                  f"exceeds on-chip capacity {capacity / 1e6:.1f} MB")
        oversized = res.oversized(capacity)
        if oversized:
            # each overflowing byte is evicted and restored once
            spilled = sum(res.footprints[i] - capacity for i in oversized)
            spill_cycles = 2 * spilled / ctx.config.hbm_bytes_per_cycle
            detail = (f"SpillInsertionPass will spill around "
                      f"{len(oversized)} oversized op(s), adding "
                      f"~{spill_cycles:,.0f} HBM cycles of spill/fill traffic")
        else:
            detail = ("every op's own footprint fits, so no spill is "
                      "inserted; the excess is values held live across ops")
        return [Diagnostic("ALC602", f"{demand} — {detail}",
                           op_index=index, op_label=label)]

    def _lane_underutilization(self, report: CostReport,
                               ctx: AnalysisContext) -> List[Diagnostic]:
        cores = ctx.config.total_cores
        out: List[Diagnostic] = []
        for row in report.rows:
            if row.cost.compute_cycles <= 0:
                continue
            util = row.cost.utilization(cores)
            if util >= self.utilization_threshold:
                continue
            out.append(Diagnostic(
                "ALC603",
                f"{row.label}: compute window fills only {util:.0%} of the "
                f"{cores} cores (threshold "
                f"{self.utilization_threshold:.0%}) — batch or pack more "
                f"work to fill the lanes",
                op_index=row.index, op_label=row.op.label))
        return out

    @staticmethod
    def _fusion_opportunities(program: Program,
                              ctx: AnalysisContext) -> List[Diagnostic]:
        # lazy import: passes.fusion imports verify modules at load time
        from repro.compiler.passes.fusion import _fusable, _fuse

        try:
            order = program.topo_order()
        except ValueError:
            return []
        fanout: Dict[str, int] = {}
        for op in program.ops:
            for v in op.uses:
                fanout[v] = fanout.get(v, 0) + 1
        out: List[Diagnostic] = []
        for ia, i in zip(order, order[1:]):
            a, b = program.ops[ia], program.ops[i]
            if not _fusable(a, b, fanout):
                continue
            cost_a = cost_op(a, ctx.config)
            cost_b = cost_op(b, ctx.config)
            fused = cost_op(_fuse(a, b), ctx.config)
            saved = (cost_a.serialized_cycles + cost_b.serialized_cycles
                     - fused.serialized_cycles)
            if saved <= 0:
                continue
            a_tag = a.label or a.kind.value
            b_tag = b.label or b.kind.value
            out.append(Diagnostic(
                "ALC604",
                f"{a_tag}+{b_tag}: fusing this elementwise pair saves "
                f"{saved:,.0f} cycles (the intermediate value's write + "
                f"re-read) — FuseElementwisePass proves profitable",
                op_index=i, op_label=b.label,
                values=tuple(a.defs[:1])))
        return out

    @staticmethod
    def _compression_flips(program: Program, report: CostReport,
                           ctx: AnalysisContext) -> List[Diagnostic]:
        """ALC605: ops whose binding resource leaves HBM under the
        configured compression model (vs the same config without it)."""
        comp = ctx.config.compression
        if comp is None or not comp.enabled:
            return []
        baseline = analyze_program(
            program, replace(ctx.config, compression=None))
        out: List[Diagnostic] = []
        if baseline.bottleneck == "hbm" and report.bottleneck != "hbm":
            saved = baseline.total_hbm_bytes - report.total_hbm_bytes
            charged = (report.totals.compute_cycles
                       - baseline.totals.compute_cycles)
            out.append(Diagnostic(
                "ALC605",
                f"compression flips this program from hbm-bound to "
                f"{report.bottleneck}-bound — {saved / 1e6:.1f} MB fewer "
                f"off-chip bytes for {charged:,.0f} on-chip expansion "
                f"cycles ({baseline.pipelined_cycles:,.0f} -> "
                f"{report.pipelined_cycles:,.0f} cycles)"))
        for base_row, row in zip(baseline.rows, report.rows):
            if base_row.bound != "hbm" or row.bound == "hbm":
                continue
            saved = base_row.cost.hbm_bytes - row.cost.hbm_bytes
            out.append(Diagnostic(
                "ALC605",
                f"{row.label}: compression flips this op from hbm-bound to "
                f"{row.bound}-bound — {saved / 1e6:.1f} MB fewer off-chip "
                f"bytes, {row.cost.compute_cycles - base_row.cost.compute_cycles:,.0f} "
                f"expansion cycles charged on-chip",
                op_index=row.index, op_label=row.op.label))
        return out

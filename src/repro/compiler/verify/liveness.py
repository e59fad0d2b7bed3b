"""Liveness and value-dataflow analysis.

Errors:

* ``ALC301`` — an op uses a value id that no op defines and that is not
  in the program's declared ``inputs``.  Only enforced when the builder
  declared its inputs (all shipped builders do); otherwise an undefined
  use is assumed to be an external argument, the legacy convention.
* ``ALC302`` — a use binds *forward* to a def that only appears later in
  the op list (a scrambled or corrupted graph).

Advisory notes:

* ``ALC401`` — a dead definition: the value is never used and its op has
  live successors (terminal ops' defs are the program outputs and are
  exempt, as are ``.out`` aliases of ops whose primary def is consumed).
* ``ALC402`` — the live set (sum of live value footprints over the
  topological order) exceeds total on-chip capacity; reported at the op
  where it first does, stating the true peak and where it occurs.
* ``ALC403`` — a single op's working footprint exceeds on-chip capacity:
  exactly the condition under which ``SpillInsertionPass`` inserts a
  spill/fill pair around it, so the note statically predicts every spill.

Both capacity notes read the one residency walk of
:mod:`repro.compiler.residency`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Set

from repro.compiler.ops import Program
from repro.compiler.residency import residency
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic


class LivenessAnalysis(Analysis):
    """Dead defs, undefined/forward uses, and live-set capacity pressure."""

    name = "liveness"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        def_sites: Dict[str, List[int]] = {}
        for i, op in enumerate(program.ops):
            for v in op.defs:
                def_sites.setdefault(v, []).append(i)
        declared = set(getattr(program, "inputs", ()) or ())
        used: Set[str] = set()
        for i, op in enumerate(program.ops):
            tag = op.label or f"op{i}"
            for v in op.uses:
                used.add(v)
                sites = def_sites.get(v)
                if not sites:
                    if declared and v not in declared:
                        out.append(Diagnostic(
                            "ALC301",
                            f"{tag}: uses {v!r}, which is never defined and "
                            f"is not a declared program input",
                            op_index=i, op_label=op.label, values=(v,)))
                    continue
                k = bisect_left(sites, i)
                if k == 0 and sites[0] != i:
                    out.append(Diagnostic(
                        "ALC302",
                        f"{tag}: uses {v!r} before its definition "
                        f"(op {sites[0]})",
                        op_index=i, op_label=op.label, values=(v,)))
        out.extend(self._dead_defs(program, used))
        out.extend(self._capacity(program, ctx))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _dead_defs(program: Program, used: Set[str]) -> List[Diagnostic]:
        edges = program.dependency_edges()
        has_succ: Set[int] = set()
        for i, preds in edges.items():
            has_succ.update(preds)
        out: List[Diagnostic] = []
        for i, op in enumerate(program.ops):
            if i not in has_succ:
                continue             # terminal op: defs are program outputs
            if any(v in used for v in op.defs):
                continue             # at least one alias is consumed
            for v in op.defs:
                tag = op.label or f"op{i}"
                out.append(Diagnostic(
                    "ALC401", f"{tag}: defines {v!r}, which is never used",
                    op_index=i, op_label=op.label, values=(v,)))
        return out

    @staticmethod
    def _capacity(program: Program,
                  ctx: AnalysisContext) -> List[Diagnostic]:
        """Peak-live-set and per-op footprint pressure (spill prediction)."""
        try:
            res = residency(program, ctx.config.word_bytes)
        except ValueError:
            return []                # cycle: structure analysis reports it
        capacity = ctx.config.total_onchip_bytes
        out: List[Diagnostic] = []
        for i in res.oversized(capacity):
            op = program.ops[i]
            out.append(Diagnostic(
                "ALC403",
                f"{op.label or f'op{i}'}: working footprint "
                f"{res.footprints[i] / 1e6:.1f} MB exceeds on-chip capacity "
                f"{capacity / 1e6:.1f} MB — SpillInsertionPass will spill "
                f"here",
                op_index=i, op_label=op.label))
        first = res.first_overflow(capacity)
        if first is not None and res.peak_index is not None:
            op = program.ops[first]
            peak_op = program.ops[res.peak_index]
            out.append(Diagnostic(
                "ALC402",
                f"{op.label or f'op{first}'}: live set first exceeds the "
                f"{capacity / 1e6:.1f} MB of on-chip SRAM here; it peaks at "
                f"{res.peak_bytes / 1e6:.1f} MB at op{res.peak_index} "
                f"({peak_op.label or peak_op.kind.value})",
                op_index=first, op_label=op.label))
        return out

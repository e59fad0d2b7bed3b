"""model-toolchain: repeated passes of the modelling stack over the 12
shipped paper-scale programs.

Each pass builds the programs, then for every one runs the linter, the
static cost analyzer, the cycle simulator, the event-driven engine and a
seeded fault campaign, and finally replays one seeded serving trace
through the serving simulator.  This is the host time users of ``repro
lint/analyze/simulate/faults/serve`` wait for; the functional kernels do
no work here, so it is the bypass workload for kernel changes.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.cli import _workloads
from repro.compiler.cost import analyze_program, differential_check
from repro.compiler.verify import (
    CostAnalysis,
    HazardAnalysis,
    KeyResidencyAnalysis,
    LevelScaleAnalysis,
    LivenessAnalysis,
    NoiseBudgetAnalysis,
    Severity,
    SlotPartitionAnalysis,
    StructureAnalysis,
    lint_program,
)
from repro.serve import ServingSimulator, generate_trace
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults import run_workload_campaign
from repro.sim.simulator import CycleSimulator

from common import (
    HostReference,
    Outcome,
    Tracing,
    closed_loop,
    latency_metrics,
    layer_metrics,
    median_setup,
    overhead_metrics,
    paired_ops,
    timed_op,
)
from spans import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The default lint suite, one analysis at a time (traced run only).
ANALYSES = (
    ("structure", StructureAnalysis),
    ("levels", LevelScaleAnalysis),
    ("partition", SlotPartitionAnalysis),
    ("noise", NoiseBudgetAnalysis),
    ("keys", KeyResidencyAnalysis),
    ("liveness", LivenessAnalysis),
    ("cost", CostAnalysis),
    ("hazards", HazardAnalysis),
)

#: Serving-simulator trace replayed once per pass.
SERVE_PROFILE = "steady"
SERVE_RATE_RPS = 2000.0
SERVE_REQUESTS = 400

SETUP_REPEATS = 3
#: Untraced/traced pass pairs in the traced run (fixed, so counts repeat).
TRACED_PAIRS = 6
#: Kind of reference loop that op_cost_ref divides by: the modelling
#: stack is pure Python.
REFERENCE = "python"


def golden_latencies() -> Dict[str, Tuple[float, float]]:
    """Program name -> (seconds-to-unit factor, committed latency) from
    ``BENCH_table7.json`` and ``BENCH_fig6.json``.  ``bfv-cmult`` has no
    committed golden."""
    with open(os.path.join(ROOT, "BENCH_table7.json")) as fh:
        table7 = json.load(fh)["operators"]
    with open(os.path.join(ROOT, "BENCH_fig6.json")) as fh:
        fig6 = json.load(fh)
    apps = fig6["ckks_applications"]
    pbs = fig6["tfhe_pbs"]
    out = {name: (1e6, table7[op]["latency_us"]) for name, op in (
        ("pmult", "Pmult"), ("hadd", "Hadd"), ("keyswitch", "Keyswitch"),
        ("cmult", "Cmult"), ("rotation", "Rotation"))}
    out.update({name: (1e3, apps[app]["latency_ms"]) for name, app in (
        ("lola-enc", "lola_mnist_enc"), ("lola-plain", "lola_mnist_plain"),
        ("bootstrapping", "bootstrapping"), ("helr", "helr_iteration"))})
    out.update({name: (1e3, pbs[s]["batch_latency_ms"]) for name, s in (
        ("pbs-i", "set_I"), ("pbs-ii", "set_II"))})
    return out


class Toolchain:
    """One pass = every modelling tool over every shipped program."""

    def __init__(self, seed: int, problems: List[str],
                 split_lint: bool = False):
        self.seed = seed
        self.split_lint = split_lint
        self.golden = golden_latencies()
        #: Every failed check, explained (shared with the Outcome).
        self.problems = problems
        self.ops = 0
        self.modelled_cycles = 0.0

    def one_pass(self, recorder: Optional[SpanRecorder] = None) -> bool:
        """Run every tool once; False if any output check failed."""
        def span(name):
            return recorder.span(name) if recorder else contextlib.nullcontext()

        with span("compiler.build"):
            programs = _workloads()
        self.ops = sum(len(p.ops) for p in programs.values())
        self.modelled_cycles = 0.0
        all_ok = True
        for name, program in programs.items():
            diagnostics = []
            if self.split_lint:
                for key, analysis in ANALYSES:
                    with span(f"compiler.verify.{key}"):
                        report = lint_program(program, analyses=[analysis()])
                    diagnostics += report.diagnostics
            else:
                diagnostics = lint_program(program).diagnostics
            with span("compiler.cost.analyze"):
                analyze_program(program)
            with span("sim.cycle"):
                sim = CycleSimulator().run(program)
            with span("sim.engine"):
                EventDrivenSimulator().run(program)
            with span("sim.faults"):
                campaign = run_workload_campaign(name, [program],
                                                 seed=self.seed)
            self.modelled_cycles += sim.cycles
            all_ok &= self._check(name, diagnostics, sim, campaign)
        trace = generate_trace(SERVE_PROFILE, seed=self.seed,
                               rate_rps=SERVE_RATE_RPS,
                               n_requests=SERVE_REQUESTS)
        with span("serve.simulate"):
            served = ServingSimulator().simulate(
                trace, profile=SERVE_PROFILE, seed=self.seed,
                rate_rps=SERVE_RATE_RPS)
        ok = served.served == served.offered
        if not ok:
            self.problems.append(
                f"serving simulation served {served.served} of "
                f"{served.offered} requests")
        return all_ok and ok

    def _check(self, name, diagnostics, sim, campaign) -> bool:
        ok = True
        loud = [d for d in diagnostics if d.severity != Severity.NOTE]
        if loud:
            self.problems.append(f"{name}: lint not clean: "
                                 f"{[d.code for d in loud]}")
            ok = False
        if name in self.golden:
            factor, committed = self.golden[name]
            if sim.seconds * factor != committed:
                self.problems.append(
                    f"{name}: modelled {sim.seconds * factor!r} != "
                    f"committed {committed!r}")
                ok = False
        if campaign.aborted_tenants:
            self.problems.append(f"{name}: fault campaign aborted "
                                 f"{campaign.aborted_tenants}")
            ok = False
        return ok


def differential_checks(outcome: Outcome) -> None:
    """Static analysis == simulator, once per program (outside timing)."""
    for name, program in _workloads().items():
        ok = differential_check(program).ok
        if not ok:
            outcome.problems.append(f"{name}: differential_check failed")
        outcome.count(ok)


def run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    _, setup_s = median_setup(_workloads, SETUP_REPEATS)
    tool = Toolchain(seed, out.problems)
    reference = HostReference(REFERENCE)
    latencies = closed_loop(lambda _i: tool.one_pass(), seconds, out,
                            "toolchain pass", reference)
    differential_checks(out)
    per_s = len(latencies) / sum(latencies)
    latency_metrics(out, latencies, per_s, setup_s, reference, latencies)
    out.notes += [
        ("toolchain_suites_per_s", per_s, "1/s"),
        ("passes", len(latencies), "count"),
    ]
    return out


def run_traced(seed: int, tracing: Tracing) -> Outcome:
    out = Outcome()
    rec = tracing.recorder
    tool = Toolchain(seed, out.problems, split_lint=True)
    timed_op(lambda _i: tool.one_pass(), 0, out, "warm-up")
    untraced, traced = paired_ops(
        lambda _i: tool.one_pass(), lambda _i: tool.one_pass(rec),
        TRACED_PAIRS, out, "app.toolchain_pass", tracing)
    differential_checks(out)
    layer_metrics(out, rec)
    overhead_metrics(out, untraced, traced)
    out.metrics["compiler.ops"] = tool.ops
    out.metrics["sim.modelled_cycles"] = tool.modelled_cycles
    return out

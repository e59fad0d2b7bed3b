"""tfhe-gates: a seeded random circuit of bootstrapped binary gates at
paper set I (n=630, N=1024, l=3).

Blind rotation does nearly all the work and no CKKS/RNS code runs, so a
blind-rotation change must show here and must not move ``ckks-helr``.
``BootstrapKit`` key generation is the set-up.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.sim.simulator import CycleSimulator
from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.gates import TFHEGates
from repro.tfhe.params import PARAM_SET_I

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
    percentile,
    timed_op,
)

#: Gate -> plaintext truth table.
TRUTH = {
    "nand": lambda a, b: not (a and b),
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "nor": lambda a, b: not (a or b),
    "xor": lambda a, b: a != b,
    "xnor": lambda a, b: a == b,
}
#: Encrypted input bits of the circuit.
INPUTS = 4
#: Gates draw their operands from the most recent wires.
WINDOW = 8
#: One set-I keygen is ~16 s on a 2-core x86 VM; repeating it in every run
#: would not fit the benchmark's time budget, so set-up is measured once.
SETUP_REPEATS = 1
#: Untraced/traced gate pairs in the traced run (fixed, so counts repeat).
TRACED_PAIRS = 2
#: Kind of reference loop that op_cost_ref divides by: blind rotation is
#: numpy NTTs and products on N=1024 polynomials.
REFERENCE = "numpy"


class Circuit:
    """Gates appended one at a time; each output is checked against the
    truth table of its plaintext inputs and becomes a new wire."""

    def __init__(self, gates: TFHEGates, seed: int):
        self.gates = gates
        self.rng = random.Random(seed)
        self.wires: List[Tuple[object, bool]] = []
        for _ in range(INPUTS):
            bit = bool(self.rng.getrandbits(1))
            self.wires.append((gates.encrypt_bit(bit), bit))

    def step(self, _index: int) -> bool:
        kind = self.rng.choice(sorted(TRUTH))
        recent = self.wires[-WINDOW:]
        (x, a), (y, b) = self.rng.choice(recent), self.rng.choice(recent)
        out = getattr(self.gates, f"gate_{kind}")(x, y)
        expected = bool(TRUTH[kind](a, b))
        self.wires.append((out, expected))
        return self.gates.decrypt_bit(out) == expected


def make_kit(seed: int) -> BootstrapKit:
    return BootstrapKit(PARAM_SET_I, np.random.default_rng(seed))


def run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    kit, setup_s = median_setup(lambda: make_kit(seed), SETUP_REPEATS)
    circuit = Circuit(TFHEGates(kit), seed)
    reference = HostReference(REFERENCE)
    latencies = closed_loop(circuit.step, seconds, out, "gate", reference)
    per_s = len(latencies) / sum(latencies)
    latency_metrics(out, latencies, per_s, setup_s, reference, latencies)
    out.notes += [
        ("gates_per_s", per_s, "1/s"),
        ("gate_s_p50", percentile(latencies, 50), "s"),
        ("gates", len(latencies), "count"),
    ]
    return out


def run_traced(seed: int, tracing: Tracing) -> Outcome:
    out = Outcome()
    rec = tracing.recorder
    tracing.on()
    with rec.span("tfhe.keygen"):
        kit = make_kit(seed)
    tracing.off()
    out.metrics["tfhe.keygen_s"] = rec.durations("tfhe.keygen")[0]
    gates = TFHEGates(kit)
    tracing.instrument(kit, {"blind_rotate": "tfhe.blind_rotate"})
    tracing.instrument(kit.keyswitch_key, {"keyswitch": "tfhe.keyswitch"})
    tracing.instrument(gates, {f"gate_{k}": "tfhe.gate" for k in TRUTH})
    timed_op(Circuit(gates, seed + 1).step, 0, out, "warm-up")
    # two circuits from one seed: each pair evaluates the same gate
    untraced, traced = paired_ops(Circuit(gates, seed).step,
                                  Circuit(gates, seed).step, TRACED_PAIRS,
                                  out, "app.gate", tracing)
    layer_metrics(out, rec)
    overhead_metrics(out, untraced, traced)
    # Modelled beside measured, same parameters on both sides: one set-I
    # gate bootstrap on the simulator vs one measured untraced gate.
    cycles = CycleSimulator().run(pbs_batch_program(PBS_SET_I, batch=1)).cycles
    out.metrics["tfhe.pbs_modelled_cycles"] = cycles
    out.metrics["tfhe.s_per_modelled_cycle"] = untraced / TRACED_PAIRS / cycles
    return out

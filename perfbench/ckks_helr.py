"""ckks-helr: closed-loop encrypted HELR gradient samples at N=2^13.

One client encrypts a sample's 8 features, runs one
``logistic_regression_step`` over it and decrypts the gradient, then sends
the next sample.  Key generation is the set-up.  Nearly all the time is in
``repro.kernels``, ``repro.rns`` and ``repro.ckks`` at a realistic ring
degree, so NTT, keyswitch and encoder changes show here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.ml import PolySigmoid, logistic_regression_step
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams

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

LOG_N = 13
LEVELS = 8
DNUM = 3
#: Features per sample = the rotate-and-sum block.
BLOCK = 8
#: rotate_and_sum folds +1,+2,+4; broadcast_slot folds -1,-2,-4.
ROTATIONS = (1, 2, 4, -1, -2, -4)
#: Max |decrypted - plaintext| gradient error accepted (observed ~1e-6).
TOLERANCE = 1e-4
#: One keygen is ~8 s on a 2-core x86 VM; repeating it in every run would
#: not fit the benchmark's time budget, so set-up is measured once.
SETUP_REPEATS = 1
#: Untraced/traced sample pairs in the traced run (fixed, so counts repeat).
TRACED_PAIRS = 2
#: Kind of reference loop that op_cost_ref divides by: the work is numpy
#: on N=2^13 limbs.
REFERENCE = "numpy"

#: Evaluator methods traced as scheme ops, and the RNS keyswitch seam.
EVALUATOR_SPANS = {
    "multiply": "ckks.multiply",
    "relinearize": "ckks.relinearize",
    "rescale": "ckks.rescale",
    "rotate": "ckks.rotate",
    "mul_plain": "ckks.mul_plain",
    "add": "ckks.add",
    "keyswitch_core": "rns.keyswitch",
}


@dataclass
class Stack:
    encryptor: CKKSEncryptor
    decryptor: CKKSDecryptor
    evaluator: CKKSEvaluator


def build_stack(seed: int) -> Stack:
    params = CKKSParams(n=1 << LOG_N, num_levels=LEVELS, dnum=DNUM)
    rng = np.random.default_rng(seed)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    evaluator = CKKSEvaluator(params, encoder,
                              relin_key=keygen.relin_key(),
                              galois_key=keygen.rotation_key(ROTATIONS))
    encryptor = CKKSEncryptor(params, encoder, rng,
                              public_key=keygen.public_key())
    decryptor = CKKSDecryptor(params, encoder, keygen.secret_key())
    return Stack(encryptor, decryptor, evaluator)


def instrument(stack, tracing: Tracing) -> None:
    """Scheme-op seams on a CKKS stack (anything with ``evaluator``,
    ``encryptor`` and ``decryptor``)."""
    tracing.instrument(stack.evaluator, EVALUATOR_SPANS)
    tracing.instrument(stack.encryptor, {"encode": "ckks.encode",
                                         "encrypt": "ckks.encrypt"})
    tracing.instrument(stack.decryptor, {"decrypt": "ckks.decrypt"})


def sample_inputs(seed: int, index: int):
    """Features, label and current weights of sample ``index``."""
    rng = np.random.default_rng([seed, index])
    x = rng.uniform(-1.0, 1.0, BLOCK)
    weights = rng.uniform(-1.0, 1.0, BLOCK)
    label = float(rng.integers(0, 2))
    return x, label, weights


def make_op(stack: Stack, seed: int):
    sigmoid = PolySigmoid()

    def op(index: int) -> bool:
        x, label, weights = sample_inputs(seed, index)
        ct = stack.encryptor.encrypt_values(x)
        grad_ct, _ = logistic_regression_step(
            stack.evaluator, [ct], [label], weights, block=BLOCK)
        got = stack.decryptor.decrypt(grad_ct).real[:BLOCK]
        z = float(x @ weights)
        expected = x * (label - (sigmoid.c0 + sigmoid.c1 * z
                                 + sigmoid.c3 * z ** 3))
        return bool(np.abs(got - expected).max() < TOLERANCE)
    return op


def run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    stack, setup_s = median_setup(lambda: build_stack(seed), SETUP_REPEATS)
    reference = HostReference(REFERENCE)
    latencies = closed_loop(make_op(stack, seed), seconds, out,
                            "helr sample", reference)
    per_s = len(latencies) / sum(latencies)
    latency_metrics(out, latencies, per_s, setup_s, reference, latencies)
    out.notes += [
        ("helr_samples_per_s", per_s, "1/s"),
        ("helr_sample_s_p50", percentile(latencies, 50), "s"),
        ("samples", len(latencies), "count"),
    ]
    return out


def run_traced(seed: int, tracing: Tracing) -> Outcome:
    out = Outcome()
    rec = tracing.recorder
    tracing.on()
    with rec.span("ckks.keygen"):
        stack = build_stack(seed)
    tracing.off()
    out.metrics["ckks.keygen_s"] = rec.durations("ckks.keygen")[0]
    instrument(stack, tracing)
    op = make_op(stack, seed)
    timed_op(op, TRACED_PAIRS, out, "warm-up")
    untraced, traced = paired_ops(op, op, TRACED_PAIRS, out,
                                  "app.helr_sample", tracing)
    layer_metrics(out, rec)
    overhead_metrics(out, untraced, traced)
    return out

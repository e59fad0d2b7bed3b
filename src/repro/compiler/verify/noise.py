"""Cross-scheme static noise-budget analysis (codes ALC701-ALC704).

The verify layer's other passes prove structural facts (levels, scales,
partitioning); this pass answers the question that actually gates
correctness: *will this program still decrypt?*  It interprets a
per-scheme noise abstract domain over ``Program.dependency_edges`` —
the BASALISC approach of conservative static noise tracking, applied to
all three schemes the Alchemist pipeline serves:

* **CKKS** — coefficient-error standard deviation in the log2 domain,
  reusing the exact formulas of :mod:`repro.ckks.noise` (the module the
  measured-noise tests validate).  A value decrypts "correctly" when its
  decoded slot error stays below the program's declared ``tolerance``.
* **BFV** — invariant-noise magnitude in bits against the
  ``log2(q/t) - 1`` decryption bound (the same quantity
  ``BFVDecryptor.noise_budget_bits`` measures at runtime).
* **TFHE** — torus error variance through gate/lincomb chains, with a
  PBS *resetting* the budget to the analytic bootstrap output variance
  (:meth:`repro.tfhe.params.TFHEParams.pbs_output_variance`); a sample
  decodes while ``z * std`` stays inside the phase margin.

Programs opt in through ``program.metadata["noise"]`` (a dict with a
``"scheme"`` key plus the scheme's parameters — see the ``_*Domain``
classes).  Programs without the annotation flow through silently, the
same convention the level/scale pass uses for role-less ops.

Transfer functions key on the op ``role`` annotations the builders set
(``tensor``/``pmult``/``rescale``/``modraise``/``keyswitch`` for the
RLWE schemes; ``lincomb``/``pbs``/``lwe-keyswitch`` for TFHE); role-less
ops propagate state conservatively (max over inputs; EW_ADD combines).

The model is deliberately one-sided: every approximation rounds
*pessimistic* (worst-case value bounds, z-sigma tail multipliers, dnum
digits for every keyswitch), so a program this pass calls clean must
decrypt on the real stacks.  ``tests/integration/test_noise_differential.py``
enforces exactly that — zero false negatives with bounded, reported
conservatism — against real CKKS/BFV/TFHE executions.

Diagnostics:

* ``ALC701`` (ERROR) — headroom <= 0 bits: decryption will fail.
* ``ALC702`` (WARNING) — within ``warn_bits`` of exhaustion.
* ``ALC703`` (NOTE) — a rescale/bootstrap/PBS placement that would
  recover budget.
* ``ALC704`` (NOTE) — the program's minimum-headroom point (always
  emitted for annotated programs, like the liveness pressure notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ckks.noise import (
    encoding_std,
    fresh_encryption_std,
    key_norm_from_hamming,
    keyswitch_std,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic
from repro.tfhe.params import TFHEParams

#: Smallest log2 magnitude we track (avoids -inf in the log domain).
_LOG2_FLOOR = -300.0


def _log2(x: float) -> float:
    return math.log2(x) if x > 0.0 else _LOG2_FLOOR


def rss_log2(a_bits: float, b_bits: float) -> float:
    """log2 of the root-sum-square of two magnitudes given in log2."""
    hi, lo = (a_bits, b_bits) if a_bits >= b_bits else (b_bits, a_bits)
    if hi - lo > 60.0:
        return hi
    return hi + 0.5 * math.log2(1.0 + 4.0 ** (lo - hi))


def sum_log2(a_bits: float, b_bits: float) -> float:
    """log2 of the plain sum of two magnitudes given in log2."""
    hi, lo = (a_bits, b_bits) if a_bits >= b_bits else (b_bits, a_bits)
    if hi - lo > 60.0:
        return hi
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def _meta_float(meta: Mapping[str, object], key: str, default: float) -> float:
    value = meta.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return default


def _meta_int(meta: Mapping[str, object], key: str, default: int) -> int:
    value = meta.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return int(value)
    return default


@dataclass(frozen=True)
class NoiseState:
    """Scheme-generic abstract noise state for one value id.

    Field interpretation per scheme:

    * CKKS — ``noise`` is the log2 coefficient-error std, ``scale_units``
      the scale exponent in units of ``scale_bits`` (fresh = 1, ct x ct
      product = 2, rescale subtracts 1), ``log2_bound`` the log2 bound on
      the plaintext values the ciphertext carries.
    * BFV — ``noise`` is the log2 invariant-noise magnitude (bits of the
      worst coefficient); the other fields are unused.
    * TFHE — ``noise`` is the torus error *variance* (linear, the values
      are far from the float floor); the other fields are unused.

    ``seeded`` marks states derived only from external-input seeds, whose
    scale is a *lower bound* rather than a derived fact (the levels pass's
    ``fresh`` flag); the CKKS rescale transfer widens such inputs instead
    of claiming a precision-destroying base-scale rescale.

    ``level`` (CKKS only) counts remaining rescale levels, which fixes the
    remaining ciphertext modulus: decryption also requires the *carried
    value* ``m * Delta^units`` to fit inside ``q_level / 2``, a failure
    mode entirely separate from noise (deep plaintext-multiply chains hit
    it first when their values grow each level).
    """

    noise: float
    scale_units: float = 0.0
    log2_bound: float = 0.0
    seeded: bool = False
    level: float = 0.0


class NoiseDomain:
    """Per-scheme abstract domain: fresh state, transfer, headroom."""

    scheme = ""
    #: headroom (bits) under which ALC702 fires; metadata-overridable.
    warn_bits = 4.0

    def fresh(self) -> NoiseState:
        raise NotImplementedError

    def transfer(self, op: HighLevelOp,
                 ins: List[NoiseState]) -> NoiseState:
        raise NotImplementedError

    def headroom_bits(self, state: NoiseState) -> float:
        """Bits of budget left; <= 0 means decryption fails statically."""
        raise NotImplementedError

    def recovery_hint(self, op: HighLevelOp, ins: List[NoiseState],
                      exhausted: bool) -> str:
        """ALC703 text when a budget-recovering op placement is missed."""
        return ""

    # ------------------------------ shared ----------------------------- #

    @staticmethod
    def _worst(ins: List[NoiseState]) -> NoiseState:
        """Pointwise-max combine (the conservative role-less default);
        ``level`` takes the min — less remaining modulus is worse."""
        return NoiseState(
            noise=max(s.noise for s in ins),
            scale_units=max(s.scale_units for s in ins),
            log2_bound=max(s.log2_bound for s in ins),
            seeded=any(s.seeded for s in ins),
            level=min(s.level for s in ins),
        )


class _CKKSDomain(NoiseDomain):
    """log2 coefficient-std propagation using the repro.ckks.noise model."""

    scheme = "ckks"

    def __init__(self, meta: Mapping[str, object]):
        self.n = _meta_int(meta, "n", 1 << 15)
        self.scale_bits = _meta_int(meta, "scale_bits", 35)
        self.first_prime_bits = _meta_int(meta, "first_prime_bits", 41)
        self.sigma = _meta_float(meta, "sigma", 3.2)
        hamming = _meta_int(meta, "hamming_weight", 0)
        self.key_norm = key_norm_from_hamming(hamming, self.n)
        #: decoded slot values must stay within this absolute error
        self.tolerance = _meta_float(meta, "tolerance", 0.05)
        #: worst-case magnitude of plaintext multiplier values (Pmult)
        self.pt_bound = _meta_float(meta, "pt_bound", 1.0)
        #: worst-case magnitude of encrypted input values
        self.value_bound = _meta_float(meta, "value_bound", 1.0)
        dnum = max(1, _meta_int(meta, "dnum", 1))
        num_levels = max(1, _meta_int(meta, "num_levels", 1))
        self.num_levels = num_levels
        alpha = -(-(num_levels + 1) // dnum)
        # every keyswitch charged at the full dnum digits (worst level)
        self.ks_bits = _log2(
            keyswitch_std(self.sigma, self.n, dnum, alpha))
        self.rounding_bits = 0.5 * _log2(
            (1.0 + self.key_norm ** 2) / 12.0)
        #: z-sigma tail multiplier: P(|err| > 8 std) ~ 1e-15 per slot
        self.z_bits = _log2(_meta_float(meta, "z", 8.0))
        self.warn_bits = _meta_float(meta, "warn_bits", 4.0)

    def fresh(self) -> NoiseState:
        return NoiseState(
            noise=_log2(fresh_encryption_std(self.sigma, self.n)),
            scale_units=1.0,
            log2_bound=_log2(self.value_bound),
            seeded=True,
            level=float(self.num_levels),
        )

    def transfer(self, op: HighLevelOp,
                 ins: List[NoiseState]) -> NoiseState:
        if not ins:
            return self.fresh()
        role = op.role
        worst = self._worst(ins)
        if role == "tensor":
            a = ins[0]
            b = ins[1] if len(ins) > 1 else ins[0]
            # cross terms m_a*e_b + m_b*e_a (multiply_cross_std in log2)
            # plus the e_a*e_b convolution (~sqrt(n) growth), which only
            # matters when the carried values are smaller than the noise
            cross = rss_log2(rss_log2(
                b.noise + a.scale_units * self.scale_bits + a.log2_bound,
                a.noise + b.scale_units * self.scale_bits + b.log2_bound),
                a.noise + b.noise + 0.5 * _log2(float(self.n)),
            )
            return NoiseState(cross, a.scale_units + b.scale_units,
                              a.log2_bound + b.log2_bound, worst.seeded,
                              worst.level)
        if role == "pmult":
            # e_ct * (pt * Delta)  RSS  (m * Delta^units) * eps_encode —
            # the second term is what kills deep pmult chains whose
            # carried values grow with each plaintext multiply
            noise = rss_log2(
                worst.noise + self.scale_bits + _log2(self.pt_bound),
                worst.log2_bound + worst.scale_units * self.scale_bits
                + _log2(encoding_std()))
            return NoiseState(
                noise, worst.scale_units + 1.0,
                worst.log2_bound + _log2(self.pt_bound), worst.seeded,
                worst.level)
        if role == "keyswitch":
            return NoiseState(rss_log2(worst.noise, self.ks_bits),
                              worst.scale_units, worst.log2_bound,
                              worst.seeded, worst.level)
        if role == "rescale":
            # a seeded input's scale is a lower bound: a rescale proves it
            # really sat at >= Delta^2 (the levels pass's fresh-flag rule)
            units = worst.scale_units
            if worst.seeded:
                units = max(units, 2.0)
            return NoiseState(
                rss_log2(worst.noise - self.scale_bits, self.rounding_bits),
                units - 1.0, worst.log2_bound, seeded=False,
                level=worst.level - 1.0)
        if role == "modraise":
            # bootstrap: noise resets to (approximately) fresh; the value
            # bound survives the recryption
            return NoiseState(
                noise=_log2(fresh_encryption_std(self.sigma, self.n)),
                scale_units=1.0, log2_bound=worst.log2_bound,
                seeded=worst.seeded, level=float(self.num_levels))
        if op.kind == OpKind.EW_ADD and len(ins) >= 2:
            noise = ins[0].noise
            bound = ins[0].log2_bound
            for s in ins[1:]:
                noise = rss_log2(noise, s.noise)
                if role == "add":
                    # semantic ct + ct: worst-case values add; role-less
                    # EW_ADDs are scheme plumbing (keyswitch md_sub,
                    # tensor folds) that preserve the carried value
                    bound = sum_log2(bound, s.log2_bound)
                else:
                    bound = max(bound, s.log2_bound)
            return NoiseState(noise, worst.scale_units, bound, worst.seeded,
                              worst.level)
        return worst

    def headroom_bits(self, state: NoiseState) -> float:
        # noise axis — decoded slot error coeff_std * sqrt(n) / scale,
        # with a z-sigma tail, against the declared tolerance
        err_bits = (state.noise + 0.5 * _log2(float(self.n)) + self.z_bits
                    - state.scale_units * self.scale_bits)
        noise_headroom = _log2(self.tolerance) - err_bits
        # modulus axis — the carried value m * Delta^units must fit in
        # q_level / 2 or decryption wraps (independent of noise; this is
        # what kills value-growing pmult chains at the bottom level)
        log2_q = (self.first_prime_bits
                  + max(0.0, state.level) * self.scale_bits)
        overflow_headroom = (log2_q - 1.0 - state.log2_bound
                             - state.scale_units * self.scale_bits)
        return min(noise_headroom, overflow_headroom)

    def recovery_hint(self, op: HighLevelOp, ins: List[NoiseState],
                      exhausted: bool) -> str:
        if (op.role in ("tensor", "pmult")
                and any(s.scale_units >= 2.0 for s in ins)):
            return ("operand scale is already >= Delta^2: a rescale before "
                    "this multiply would recover noise budget")
        if exhausted:
            return ("a bootstrap (modraise) before this op would reset the "
                    "noise budget")
        return ""


class _BFVDomain(NoiseDomain):
    """Invariant-noise bits against the log2(q/t) decryption bound."""

    scheme = "bfv"

    def __init__(self, meta: Mapping[str, object]):
        self.n = _meta_int(meta, "n", 1 << 15)
        self.log2_q = _meta_float(meta, "log2_q", 36.0 * 12)
        self.log2_t = _meta_float(meta, "log2_t", 17.0)
        self.sigma = _meta_float(meta, "sigma", 3.2)
        dnum = max(1, _meta_int(meta, "dnum", 1))
        # relinearization: dnum digit products of keyswitch-key noise
        self.relin_bits = _log2(6.0 * self.sigma * self.n * dnum)
        self.fresh_bits = _log2(6.0 * self.sigma * (1.0 + 2.0 * self.n))
        # Delta-rounding floor of ct x ct: Delta = floor(q/t) deviates
        # from q/t by (q mod t)/t, so the product phase carries an
        # (q mod t)/t * m_a (*) m_b term bounded by n * t^2 — independent
        # of the input noise, and the dominant term for fresh operands
        self.round_floor_bits = _log2(float(self.n)) + 2.0 * self.log2_t
        self.warn_bits = _meta_float(meta, "warn_bits", 10.0)

    def fresh(self) -> NoiseState:
        return NoiseState(noise=self.fresh_bits)

    def transfer(self, op: HighLevelOp,
                 ins: List[NoiseState]) -> NoiseState:
        if not ins:
            return self.fresh()
        worst = self._worst(ins)
        role = op.role
        if role == "tensor":
            # |e_out| <~ 2 * t * n * max(|e_a|, |e_b|): messages are
            # bounded by t, the convolution contributes n terms; plus the
            # noise-independent Delta-rounding floor (see __init__)
            return NoiseState(sum_log2(
                worst.noise + self.log2_t + _log2(float(self.n)) + 1.0,
                self.round_floor_bits))
        if role == "keyswitch":
            return NoiseState(sum_log2(worst.noise, self.relin_bits))
        if role == "pmult":
            return NoiseState(sum_log2(
                worst.noise + self.log2_t + _log2(float(self.n)),
                self.round_floor_bits))
        if role == "modraise":
            return self.fresh()
        if role == "add" and op.kind == OpKind.EW_ADD and len(ins) >= 2:
            noise = ins[0].noise
            for s in ins[1:]:
                noise = sum_log2(noise, s.noise)
            # message wrap: when m_a + m_b >= t the reduction mod t adds
            # Delta*t - q = -(q mod t) to the phase, bounded by t per
            # binary add — the dominant term for fresh-operand adds
            noise = sum_log2(
                noise, self.log2_t + _log2(float(len(ins) - 1)))
            return NoiseState(noise)
        return worst

    def headroom_bits(self, state: NoiseState) -> float:
        # decryption is correct while |v| < q/(2t): budget in bits, the
        # static counterpart of BFVDecryptor.noise_budget_bits
        return self.log2_q - self.log2_t - 1.0 - state.noise

    def recovery_hint(self, op: HighLevelOp, ins: List[NoiseState],
                      exhausted: bool) -> str:
        if exhausted:
            return ("a wider modulus chain or a bootstrap (modraise) before "
                    "this op would recover noise budget")
        return ""


class _TFHEDomain(NoiseDomain):
    """Torus error variance through gate chains; PBS resets the budget."""

    scheme = "tfhe"

    def __init__(self, meta: Mapping[str, object]):
        self.params = TFHEParams(
            lwe_dim=_meta_int(meta, "lwe_dim", 630),
            ring_degree=_meta_int(meta, "ring_degree", 1024),
            bg_bit=_meta_int(meta, "bg_bit", 10),
            decomp_length=_meta_int(meta, "decomp_length", 2),
            ks_base_bit=_meta_int(meta, "ks_base_bit", 2),
            ks_length=_meta_int(meta, "ks_length", 8),
            lwe_noise_std=_meta_float(meta, "lwe_noise_std", 2.44e-5),
            ring_noise_std=_meta_float(meta, "ring_noise_std", 7.18e-9),
        )
        #: phase margin the decoder needs (1/16 for gate bootstrapping's
        #: bias +-1/8 read at +-1/16 resolution; 1/8 for direct decrypt)
        self.margin = _meta_float(meta, "margin", 1.0 / 16.0)
        #: z-sigma tail multiplier: P(|err| > 6 std) ~ 2e-9 per sample
        self.z = _meta_float(meta, "z", 6.0)
        self.warn_bits = _meta_float(meta, "warn_bits", 1.0)
        weights = meta.get("lincomb_weights")
        self.weights: Dict[str, float] = {}
        if isinstance(weights, Mapping):
            for key, value in weights.items():
                if isinstance(key, str) and isinstance(value, (int, float)):
                    self.weights[key] = float(value)

    def fresh(self) -> NoiseState:
        return NoiseState(noise=self.params.lwe_noise_std ** 2)

    def transfer(self, op: HighLevelOp,
                 ins: List[NoiseState]) -> NoiseState:
        if not ins:
            return self.fresh()
        role = op.role
        peak = max(s.noise for s in ins)
        if role == "lincomb":
            # sum of c_i^2 over the gate's linear combination, applied to
            # the worst input (inputs through one gate share a provenance)
            weight = self.weights.get(op.label, 2.0)
            return NoiseState(noise=weight * peak)
        if role == "pbs":
            # blind rotate + sample extract: output noise is a property of
            # the bootstrapping key, independent of the input
            return NoiseState(noise=self.params.pbs_output_variance())
        if role == "lwe-keyswitch":
            return NoiseState(
                noise=peak + self.params.keyswitch_variance())
        if role == "add" and op.kind == OpKind.EW_ADD and len(ins) >= 2:
            return NoiseState(noise=sum(s.noise for s in ins))
        return NoiseState(noise=peak)

    def headroom_bits(self, state: NoiseState) -> float:
        err_bits = _log2(self.z) + 0.5 * _log2(state.noise)
        return _log2(self.margin) - err_bits

    def recovery_hint(self, op: HighLevelOp, ins: List[NoiseState],
                      exhausted: bool) -> str:
        if exhausted and op.role == "lincomb":
            return ("a gate bootstrap (PBS) earlier in this chain would "
                    "reset the accumulated noise")
        return ""


_DOMAINS = {
    "ckks": _CKKSDomain,
    "bfv": _BFVDomain,
    "tfhe": _TFHEDomain,
}


def noise_domain(meta: Mapping[str, object]) -> Optional[NoiseDomain]:
    """Instantiate the abstract domain for a ``metadata["noise"]`` dict."""
    scheme = meta.get("scheme")
    if isinstance(scheme, str) and scheme in _DOMAINS:
        return _DOMAINS[scheme](meta)
    return None


@dataclass(frozen=True)
class _OpHeadroom:
    index: int
    label: str
    values: Tuple[str, ...]
    bits: float
    hint: str


class NoiseBudgetAnalysis(Analysis):
    """Cross-scheme static noise-budget abstract interpretation."""

    name = "noise-budget"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        meta = program.metadata.get("noise")
        if not isinstance(meta, Mapping):
            return []                 # not noise-annotated: nothing to prove
        domain = noise_domain(meta)
        if domain is None:
            return []
        records = _walk(program, domain)
        if not records:
            return []
        return self._diagnose(domain, records)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _diagnose(domain: NoiseDomain,
                  records: List[_OpHeadroom]) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        worst = min(records, key=lambda r: (r.bits, r.index))
        first_bad = next((r for r in records if r.bits <= 0.0), None)
        if first_bad is not None:
            tag = first_bad.label or f"op{first_bad.index}"
            out.append(Diagnostic(
                "ALC701",
                f"{tag}: {domain.scheme} noise budget exhausted "
                f"({first_bad.bits:.1f} bits of headroom) — decryption "
                f"will fail",
                op_index=first_bad.index, op_label=first_bad.label,
                values=first_bad.values))
            if first_bad.hint:
                out.append(Diagnostic(
                    "ALC703", f"{tag}: {first_bad.hint}",
                    op_index=first_bad.index, op_label=first_bad.label,
                    values=first_bad.values))
        elif worst.bits <= domain.warn_bits:
            tag = worst.label or f"op{worst.index}"
            out.append(Diagnostic(
                "ALC702",
                f"{tag}: only {worst.bits:.1f} bits of {domain.scheme} "
                f"noise headroom left (warning margin "
                f"{domain.warn_bits:.1f})",
                op_index=worst.index, op_label=worst.label,
                values=worst.values))
            if worst.hint:
                out.append(Diagnostic(
                    "ALC703", f"{tag}: {worst.hint}",
                    op_index=worst.index, op_label=worst.label,
                    values=worst.values))
        else:
            # a clean program may still carry a recoverable-placement hint
            hinted = next((r for r in records if r.hint), None)
            if hinted is not None:
                tag = hinted.label or f"op{hinted.index}"
                out.append(Diagnostic(
                    "ALC703", f"{tag}: {hinted.hint}",
                    op_index=hinted.index, op_label=hinted.label,
                    values=hinted.values))
        tag = worst.label or f"op{worst.index}"
        out.append(Diagnostic(
            "ALC704",
            f"minimum {domain.scheme} noise headroom {worst.bits:.1f} bits "
            f"at {tag}",
            op_index=worst.index, op_label=worst.label,
            values=worst.values))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def program_headroom_bits(program: Program) -> Optional[float]:
        """Minimum static headroom of an annotated program (None when the
        program carries no noise annotation).  Used by the serving layer's
        admission gate and by the differential tests."""
        meta = program.metadata.get("noise")
        if not isinstance(meta, Mapping):
            return None
        domain = noise_domain(meta)
        if domain is None:
            return None
        return _min_headroom(program, domain)


def _walk(program: Program, domain: NoiseDomain) -> List[_OpHeadroom]:
    """Interpret ``domain`` over the program; one record per defining op,
    in program order."""
    try:
        order = program.topo_order()
    except ValueError:
        return []                     # cycle: structure analysis reports it
    defined = {v for op in program.ops for v in op.defs}
    state: Dict[str, NoiseState] = {}
    records: List[_OpHeadroom] = []
    for i in order:
        op = program.ops[i]
        if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            continue                  # streamed operands carry no ct state
        # seed external inputs (uses with no producer) at a fresh state
        for v in op.uses:
            if v not in state and v not in defined:
                state[v] = domain.fresh()
        ins = [state[v] for v in op.uses if v in state]
        out_state = domain.transfer(op, ins)
        if op.defs:
            bits = domain.headroom_bits(out_state)
            hint = domain.recovery_hint(op, ins, exhausted=bits <= 0.0)
            records.append(_OpHeadroom(
                i, op.label, op.defs, bits, hint))
        for v in op.defs:
            state[v] = out_state
    records.sort(key=lambda r: r.index)
    return records


def _min_headroom(program: Program,
                  domain: NoiseDomain) -> Optional[float]:
    records = _walk(program, domain)
    if not records:
        return None
    return min(r.bits for r in records)

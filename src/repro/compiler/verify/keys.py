"""Static evaluation-key dependency & HBM-residency analysis (ALC801-805).

Evaluation keys — the relinearization key, one Galois key per distinct
rotation step (plus the conjugation element), and the TFHE bootstrapping
and keyswitch keys — are the single largest HBM traffic class the cost
model charges for: one hybrid-keyswitch key at the paper's Table 7
parameters is ~134 MB, five times the ciphertext it transforms.  This
pass makes that traffic *visible before execution*: an abstract
interpretation over ``Program`` dependency edges that computes, per
program,

* the exact evaluation-key set the program touches (from the builders'
  ``op.key`` annotations: ``"relin"``, ``"rot:<step>"``, ``"conj"``,
  ``"bsk"``, ``"ksk"``),
* each key's size in bytes — from the tagged ``HBM_LOAD`` the builders
  emit (costed through the shared :func:`repro.compiler.cost.model.
  cost_op`, so the analyzer's key-traffic split and the cycle
  simulator's can never disagree), falling back to the sizes the
  ``metadata["keys"]`` annotation declares from the live params
  (``dnum``, limb counts, ``n``),
* a key *residency* schedule over the linearized program: the sliding
  working set of live keys (peak bytes resident), the total key-fetch
  HBM traffic actually charged, the minimal single-fetch traffic a
  perfect key cache would pay (their ratio is the dedup/streaming
  overhead), and a greedy farthest-next-use prefetch/evict hint
  schedule with predicted thrash refetch bytes under a declared key
  scratchpad budget.

Programs opt in through ``program.metadata["keys"]``::

    {"scheme": "ckks",
     "provisioned": {"relin": 134_479_872, "rot:1": 134_479_872, ...},
     "ciphertext_bytes": 26_542_080,     # for the ALC803 dominance test
     "scratchpad_bytes": 150_000_000}    # optional: enables ALC802

Unannotated programs flow through silently (the ``metadata["noise"]``
convention).  Diagnostics:

* ``ALC801`` (ERROR) — an op consumes a key the program does not
  provision (e.g. a rotation whose Galois element has no declared key).
* ``ALC802`` (WARNING) — the peak key working set exceeds the declared
  key scratchpad; reports the predicted thrash refetch bytes.
* ``ALC803`` (NOTE) — a key-consuming op on the static critical path
  whose key outweighs the ciphertext it transforms (key traffic
  dominates).
* ``ALC804`` (NOTE) — the per-program key inventory: count, unique
  bytes, streamed bytes, dedup ratio.
* ``ALC805`` (NOTE) — the bytes a seed-expanded uniform half would save
  (each switching-key pair's ``a``-component is uniform and could be
  regenerated on-chip from a PRNG seed).  Retracted when the active
  config's :class:`~repro.hw.config.CompressionModel` already enables
  seed-expanded keys — the upside is then realised, not pending.  The
  advertised savings equal the measured on-disk delta of the seeded/v1
  serialization format (``tests/compiler/test_compression_cost.py``).

``tests/integration/test_keys_differential.py`` holds the required-key
set to *exact* equality — zero false negatives and zero
over-approximation — against the keys the real CKKS/BFV/TFHE evaluators
actually touch while executing mirrored workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.compiler.cost.analyzer import analyze_program
from repro.compiler.cost.model import cost_op
from repro.compiler.ops import OpKind, Program
from repro.compiler.residency import live_set
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


@dataclass(frozen=True)
class KeyEvent:
    """One touch of an evaluation key in linearized program order."""

    position: int                   # position in the linearized order
    op_index: int                   # index into ``program.ops``
    label: str
    key: str
    fetch_bytes: int                # > 0 for a tagged HBM_LOAD, else 0


@dataclass(frozen=True)
class ResidencyHint:
    """One entry of the greedy prefetch/evict schedule."""

    op_index: int
    action: str                     # "prefetch" / "refetch" / "evict"
    key: str


@dataclass(frozen=True)
class KeyResidencyReport:
    """Everything the key analysis proves about one program."""

    program: str
    scheme: str
    required: Tuple[str, ...]             # sorted distinct key names
    sizes: Dict[str, int]                 # key -> bytes (fetch or declared)
    provisioned: Tuple[str, ...]          # declared key names, sorted
    unprovisioned: Tuple[str, ...]        # required but not declared
    fetch_hbm_bytes: int                  # charged key traffic (cost_op)
    unique_bytes: int                     # one fetch per required key
    peak_resident_bytes: int              # sliding live working set max
    peak_op_index: Optional[int]
    scratchpad_bytes: Optional[int]       # declared budget (None = none)
    thrash_bytes: int                     # refetch beyond first fetch
    hints: Tuple[ResidencyHint, ...]
    events: Tuple[KeyEvent, ...]

    @property
    def dedup_ratio(self) -> float:
        """Charged streaming traffic over the perfect-cache minimum."""
        if self.unique_bytes <= 0:
            return 1.0
        return max(1.0, self.fetch_hbm_bytes / self.unique_bytes)

    @property
    def seed_expansion_savings_bytes(self) -> int:
        """Bytes saved by regenerating each key's uniform half on-chip."""
        return sum(self.sizes.get(k, 0) // 2 for k in self.required)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe, deterministically ordered rendering."""
        return {
            "scheme": self.scheme,
            "required": list(self.required),
            "unprovisioned": list(self.unprovisioned),
            "key_count": len(self.required),
            "unique_bytes": self.unique_bytes,
            "fetch_hbm_bytes": self.fetch_hbm_bytes,
            "dedup_ratio": self.dedup_ratio,
            "peak_resident_bytes": self.peak_resident_bytes,
            "thrash_bytes": self.thrash_bytes,
            "seed_expansion_savings_bytes":
                self.seed_expansion_savings_bytes,
        }


# --------------------------------------------------------------------- #
#                         metadata / event helpers                      #
# --------------------------------------------------------------------- #


def _fmt_bytes(n: float) -> str:
    """Human size at the right scale (keys are MB, LWE material is KB)."""
    if n >= 1e5:
        return f"{n / 1e6:.1f} MB"
    return f"{n / 1e3:.1f} KB"


def _keys_meta(program: Program) -> Optional[Mapping[str, object]]:
    meta = program.metadata.get("keys")
    if isinstance(meta, Mapping):
        return meta
    return None


def _provisioned_sizes(meta: Mapping[str, object]) -> Dict[str, int]:
    declared = meta.get("provisioned")
    out: Dict[str, int] = {}
    if isinstance(declared, Mapping):
        for name, size in declared.items():
            if isinstance(name, str) and isinstance(size, (int, float)) \
                    and not isinstance(size, bool):
                out[name] = int(size)
    return out


def _meta_size(meta: Mapping[str, object], key: str) -> Optional[int]:
    value = meta.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return int(value)
    return None


def required_keys(program: Program) -> Tuple[str, ...]:
    """Sorted distinct evaluation-key names the program touches.

    Reads the builders' ``op.key`` annotations directly, so it works on
    any program — annotated with ``metadata["keys"]`` or not.  The
    differential harness pins this set to exact equality against the
    keys the real evaluators touch.
    """
    return tuple(sorted({op.key for op in program.ops if op.key}))


def _key_events(program: Program, order: List[int],
                config: AlchemistConfig) -> List[KeyEvent]:
    """Key touches in topological ``order``, with charged fetch bytes.

    Fetch bytes come from :func:`cost_op` — the one formula source both
    the static analyzer and the cycle simulator charge HBM traffic from
    — so the key/ciphertext traffic split can never disagree between
    them.  Key-consuming ops without a matching load (programs that
    model the key as already resident) charge nothing, exactly like the
    simulator.
    """
    events: List[KeyEvent] = []
    for position, i in enumerate(order):
        op = program.ops[i]
        if not op.key:
            continue
        fetch = 0
        if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            fetch = cost_op(op, config).hbm_bytes
        events.append(KeyEvent(
            position=position, op_index=i,
            label=op.label, key=op.key, fetch_bytes=fetch))
    return events


def _key_sizes(events: List[KeyEvent],
               declared: Dict[str, int]) -> Dict[str, int]:
    """Bytes per key: the largest tagged fetch, else the declared size."""
    sizes: Dict[str, int] = {}
    for ev in events:
        if ev.fetch_bytes > sizes.get(ev.key, 0):
            sizes[ev.key] = ev.fetch_bytes
    for name, size in declared.items():
        sizes.setdefault(name, size)
    return sizes


# --------------------------------------------------------------------- #
#                         residency scheduling                          #
# --------------------------------------------------------------------- #


def _greedy_schedule(events: List[KeyEvent],
                     sizes: Dict[str, int],
                     budget: Optional[int]
                     ) -> Tuple[int, List[ResidencyHint]]:
    """Greedy prefetch/evict walk; returns (thrash bytes, hint schedule).

    Keys are fetched at first use and retired after their last use.
    Under a budget, the farthest-next-use key is evicted first (Belady's
    rule — optimal for a known trace); a re-fetch of an evicted key is
    thrash, charged at the key's size.
    """
    positions: Dict[str, List[int]] = {}
    for ev in events:
        positions.setdefault(ev.key, []).append(ev.position)
    cursor: Dict[str, int] = {key: 0 for key in positions}

    def next_use(key: str, after: int) -> int:
        uses = positions[key]
        i = cursor[key]
        while i < len(uses) and uses[i] <= after:
            i += 1
        cursor[key] = i
        return uses[i] if i < len(uses) else 1 << 60

    resident: Dict[str, int] = {}        # key -> next use position
    resident_bytes = 0
    fetched: set = set()
    thrash = 0
    hints: List[ResidencyHint] = []
    for ev in events:
        key = ev.key
        size = sizes.get(key, 0)
        if key not in resident:
            action = "refetch" if key in fetched else "prefetch"
            if key in fetched:
                thrash += size
            fetched.add(key)
            hints.append(ResidencyHint(ev.op_index, action, key))
            resident[key] = ev.position
            resident_bytes += size
            if budget is not None:
                while resident_bytes > budget and len(resident) > 1:
                    victim = max(
                        (k for k in resident if k != key),
                        key=lambda k: (next_use(k, ev.position), k))
                    hints.append(ResidencyHint(
                        ev.op_index, "evict", victim))
                    resident_bytes -= sizes.get(victim, 0)
                    del resident[victim]
        if next_use(key, ev.position) >= 1 << 60:
            # past the last use: retire the key from the scratchpad
            hints.append(ResidencyHint(ev.op_index, "evict", key))
            resident_bytes -= size
            del resident[key]
    return thrash, hints


# --------------------------------------------------------------------- #
#                              entry point                              #
# --------------------------------------------------------------------- #


def analyze_keys(program: Program,
                 config: AlchemistConfig = ALCHEMIST_DEFAULT
                 ) -> Optional[KeyResidencyReport]:
    """Key dependency/residency report (None when not key-annotated)."""
    meta = _keys_meta(program)
    if meta is None:
        return None
    scheme = meta.get("scheme")
    scheme_name = scheme if isinstance(scheme, str) else ""
    try:
        order = program.topo_order()
    except ValueError:
        return None                   # cycle: structure analysis reports it
    events = _key_events(program, order, config)
    declared = _provisioned_sizes(meta)
    sizes = _key_sizes(events, declared)
    required = tuple(sorted({ev.key for ev in events}))
    unprovisioned = tuple(k for k in required if k not in declared)
    budget = _meta_size(meta, "scratchpad_bytes")
    # each key is resident from its first use through its last use
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for ev in events:
        first.setdefault(ev.key, ev.position)
        last[ev.key] = ev.position
    _, peak, peak_op = live_set(
        order, ((first[k], last[k], sizes.get(k, 0)) for k in first))
    thrash, hints = _greedy_schedule(events, sizes, budget)
    return KeyResidencyReport(
        program=program.name,
        scheme=scheme_name,
        required=required,
        sizes=sizes,
        provisioned=tuple(sorted(declared)),
        unprovisioned=unprovisioned,
        fetch_hbm_bytes=sum(ev.fetch_bytes for ev in events),
        unique_bytes=sum(sizes.get(k, 0) for k in required),
        peak_resident_bytes=peak,
        peak_op_index=peak_op,
        scratchpad_bytes=budget,
        thrash_bytes=thrash,
        hints=tuple(hints),
        events=tuple(events),
    )


class KeyResidencyAnalysis(Analysis):
    """Evaluation-key dependency & HBM-residency checks (ALC801-805)."""

    name = "key-residency"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        report = analyze_keys(program, ctx.config)
        if report is None:
            return []
        out: List[Diagnostic] = []
        out.extend(self._unprovisioned(report))
        out.extend(self._working_set(report))
        out.extend(self._dominance(program, ctx.config, report))
        out.extend(self._inventory(report, ctx.config))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _unprovisioned(report: KeyResidencyReport) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for key in report.unprovisioned:
            ev = next(e for e in report.events if e.key == key)
            have = ", ".join(report.provisioned) or "none"
            out.append(Diagnostic(
                "ALC801",
                f"{ev.label}: consumes evaluation key '{key}' but the "
                f"program provisions only: {have}",
                op_index=ev.op_index, op_label=ev.label, values=(key,)))
        return out

    @staticmethod
    def _working_set(report: KeyResidencyReport) -> List[Diagnostic]:
        budget = report.scratchpad_bytes
        if budget is None or report.peak_resident_bytes <= budget:
            return []
        return [Diagnostic(
            "ALC802",
            f"peak key working set {_fmt_bytes(report.peak_resident_bytes)} "
            f"exceeds the {_fmt_bytes(budget)} key scratchpad — "
            f"{_fmt_bytes(report.thrash_bytes)} of thrash refetch "
            f"predicted",
            op_index=report.peak_op_index)]

    @staticmethod
    def _dominance(program: Program, config: AlchemistConfig,
                   report: KeyResidencyReport) -> List[Diagnostic]:
        """ALC803: the worst key-dominated consuming op on the critical
        path (key bytes > the declared ciphertext bytes)."""
        meta = _keys_meta(program)
        ct_bytes = _meta_size(meta, "ciphertext_bytes") if meta else None
        if not ct_bytes or ct_bytes <= 0:
            return []
        try:
            cost = analyze_program(program, config)
        except Exception:
            return []                 # ill-formed program: reported elsewhere
        critical = {r.index for r in cost.rows if r.critical}
        worst: Optional[KeyEvent] = None
        worst_size = 0
        for ev in report.events:
            if ev.fetch_bytes or ev.op_index not in critical:
                continue              # consuming ops only, on the path
            size = report.sizes.get(ev.key, 0)
            if size > ct_bytes and size > worst_size:
                worst, worst_size = ev, size
        if worst is None:
            return []
        return [Diagnostic(
            "ALC803",
            f"{worst.label}: evaluation key '{worst.key}' "
            f"({_fmt_bytes(worst_size)}) outweighs the "
            f"{_fmt_bytes(ct_bytes)} ciphertext on the static critical "
            f"path — key traffic dominates this op",
            op_index=worst.op_index, op_label=worst.label,
            values=(worst.key,))]

    @staticmethod
    def _inventory(report: KeyResidencyReport,
                   config: AlchemistConfig = ALCHEMIST_DEFAULT
                   ) -> List[Diagnostic]:
        if not report.required:
            return []
        out = [Diagnostic(
            "ALC804",
            f"key inventory: {len(report.required)} evaluation keys, "
            f"{_fmt_bytes(report.unique_bytes)} unique, "
            f"{_fmt_bytes(report.fetch_hbm_bytes)} streamed "
            f"(dedup x{report.dedup_ratio:.1f}), peak working set "
            f"{_fmt_bytes(report.peak_resident_bytes)}",
            op_index=report.events[0].op_index,
            op_label=report.events[0].label,
            values=report.required)]
        comp = config.compression
        if comp is not None and comp.seed_expanded_keys:
            # the upside is already realised by the active compression
            # model — advertising it again would double-count the win
            return out
        savings = report.seed_expansion_savings_bytes
        if savings > 0:
            out.append(Diagnostic(
                "ALC805",
                f"seed-expanded uniform key halves would save "
                f"{_fmt_bytes(savings)} of the "
                f"{_fmt_bytes(report.unique_bytes)} key inventory "
                f"(regenerate each 'a' component from a PRNG seed "
                f"on-chip)",
                op_index=report.events[0].op_index,
                op_label=report.events[0].label,
                values=report.required))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def missing_keys(program: Program) -> Optional[Tuple[str, ...]]:
        """Required-but-unprovisioned keys of an annotated program (None
        when the program carries no ``metadata["keys"]`` annotation).
        The serving layer's admission gate sheds requests whose programs
        demand keys the tenant has not provisioned."""
        meta = _keys_meta(program)
        if meta is None:
            return None
        declared = _provisioned_sizes(meta)
        return tuple(k for k in required_keys(program) if k not in declared)

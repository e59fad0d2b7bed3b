"""Typed diagnostics for the static verification layer.

Every finding the linter can produce has a stable machine-readable code
(``ALC001``...), a severity, and the offending op / value ids, so tooling
(CI gates, editors, the telemetry sink) can consume results without
parsing prose.  The full code registry lives in :data:`CODES`; the
``docs/diagnostics.md`` table is generated from it.

Severity semantics:

* ``ERROR`` — the program violates an invariant the hardware or the
  scheme depends on; ``repro lint`` exits non-zero.
* ``WARNING`` — almost certainly a builder bug, but the program still
  has a defined execution.
* ``NOTE`` — advisory analysis results (spill predictions, dead values);
  hidden by default and never affect the exit status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


#: Registry of every diagnostic code: code -> (severity, one-line meaning).
#: Codes are stable across releases; new checks take new codes.
CODES: Dict[str, Tuple[Severity, str]] = {
    # --- structure (dataflow / shape sanity) --------------------------- #
    "ALC001": (Severity.ERROR, "dependency cycle in the def/use graph"),
    "ALC002": (Severity.ERROR, "duplicate definition of an .out alias"),
    "ALC003": (Severity.ERROR, "op requires poly_degree > 0"),
    "ALC004": (Severity.ERROR, "bconv requires in_channels > 0"),
    "ALC005": (Severity.ERROR, "decomp_poly_mult requires depth > 0"),
    "ALC006": (Severity.ERROR, "HBM op moves a negative byte count"),
    "ALC007": (Severity.ERROR, "elementwise op moves no elements"),
    # --- level / scale (CKKS abstract interpretation) ------------------ #
    "ALC100": (Severity.ERROR, "level underflow: rescale below the last level"),
    "ALC101": (Severity.ERROR, "scale mismatch between add operands"),
    "ALC102": (Severity.ERROR, "scale overflow: rescale omitted on a multiply chain"),
    "ALC103": (Severity.ERROR, "multiply at exhausted level: bootstrap omitted"),
    "ALC104": (Severity.ERROR, "modulus-chain mismatch between add operands"),
    "ALC105": (Severity.WARNING, "redundant rescale: scale already at base"),
    # --- slot-partition conformance (zero-exchange invariant) ---------- #
    "ALC200": (Severity.ERROR, "poly degree incompatible with slot partitioning"),
    "ALC201": (Severity.ERROR, "layout change without a TRANSPOSE (cross-unit slot traffic)"),
    "ALC202": (Severity.ERROR, "Meta-OP lowering is not unit-local under slot partitioning"),
    # --- liveness / value dataflow ------------------------------------- #
    "ALC301": (Severity.ERROR, "use of a value that is neither defined nor a declared input"),
    "ALC302": (Severity.ERROR, "use before definition (forward reference)"),
    "ALC401": (Severity.NOTE, "dead definition: value is never used"),
    "ALC402": (Severity.NOTE, "live set exceeds on-chip capacity (first crossing; states the true peak)"),
    "ALC403": (Severity.NOTE, "op footprint exceeds on-chip capacity: spill will fire here"),
    # --- schedule hazards ---------------------------------------------- #
    "ALC500": (Severity.ERROR, "RAW hazard: op scheduled before its producer finished"),
    "ALC501": (Severity.ERROR, "WAW hazard: redefinition scheduled before the previous def"),
    "ALC502": (Severity.ERROR, "WAR hazard: redefinition scheduled before a reader finished"),
    "ALC503": (Severity.ERROR, "spill without a matching fill (or fill before its spill)"),
    "ALC504": (Severity.ERROR, "schedule omits or duplicates program ops"),
    # --- static cost / roofline ---------------------------------------- #
    "ALC601": (Severity.NOTE, "HBM-bound op on the static critical path"),
    "ALC602": (Severity.NOTE, "peak scratchpad demand exceeds SRAM capacity (spill traffic only where an op overflows)"),
    "ALC603": (Severity.NOTE, "compute lanes under-utilized below threshold"),
    "ALC604": (Severity.NOTE, "profitable elementwise fusion opportunity (cost model)"),
    "ALC605": (Severity.NOTE, "compression flips an op from hbm-bound to another resource"),
    # --- noise budget (cross-scheme abstract interpretation) ------------ #
    "ALC701": (Severity.ERROR, "noise budget exhausted: decryption will fail"),
    "ALC702": (Severity.WARNING, "noise headroom within the warning margin of exhaustion"),
    "ALC703": (Severity.NOTE, "missed bootstrap/rescale placement that would recover noise budget"),
    "ALC704": (Severity.NOTE, "per-value noise headroom report (worst op in the program)"),
    # --- evaluation-key dependency / HBM residency ---------------------- #
    "ALC801": (Severity.ERROR, "use of an evaluation key the program does not provision"),
    "ALC802": (Severity.WARNING, "key working set exceeds the key scratchpad: thrash refetch predicted"),
    "ALC803": (Severity.NOTE, "key-traffic-dominated op on the static critical path"),
    "ALC804": (Severity.NOTE, "per-program evaluation-key inventory (count, bytes, dedup ratio)"),
    "ALC805": (Severity.NOTE, "seed-expanded key upside: bytes a uniform-half expansion would save"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, machine-readable and deterministically sortable."""

    code: str                              # stable id, e.g. "ALC101"
    message: str                           # human-readable one-liner
    analysis: str = ""                     # producing analysis name
    op_index: Optional[int] = None         # offending op position (if any)
    op_label: str = ""                     # offending op label (if any)
    values: Tuple[str, ...] = ()           # implicated value ids
    program: str = ""                      # program name (set by the linter)
    severity: Severity = field(default=Severity.ERROR)

    def __post_init__(self) -> None:
        if self.code in CODES:
            object.__setattr__(self, "severity", CODES[self.code][0])

    def sort_key(self) -> Tuple[int, str, str]:
        idx = self.op_index if self.op_index is not None else -1
        return (idx, self.code, self.message)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (used by ``repro lint --json``)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "analysis": self.analysis,
            "op_index": self.op_index,
            "op_label": self.op_label,
            "values": list(self.values),
            "program": self.program,
        }

    def format(self) -> str:
        where = ""
        if self.op_index is not None:
            tag = self.op_label or f"op{self.op_index}"
            where = f" @op{self.op_index}({tag})"
        vals = f" [{', '.join(self.values)}]" if self.values else ""
        return f"{self.code} {self.severity}{where}: {self.message}{vals}"


def code_meaning(code: str) -> str:
    """One-line registry meaning of ``code`` (empty if unregistered)."""
    if code in CODES:
        return CODES[code][1]
    return ""


def code_table_markdown() -> str:
    """The ``docs/diagnostics.md`` table body, generated from the registry."""
    lines = ["| code | severity | meaning |", "|------|----------|---------|"]
    for code in sorted(CODES):
        sev, meaning = CODES[code]
        lines.append(f"| `{code}` | {sev} | {meaning} |")
    return "\n".join(lines)

"""High-level operator IR with compute and traffic profiles.

Every FHE workload lowers to a dataflow graph of these operators; each
operator knows (a) its Meta-OP issue stream (compute), (b) its on-chip
traffic, and (c) its off-chip (HBM) traffic.  The simulator turns those
into cycles.

Operators carry explicit ``defs``/``uses`` value ids (SSA-style producer
edges).  :meth:`Program.dependency_edges` resolves them into a DAG and
:meth:`Program.topo_order` yields a deterministic topological order — the
substrate for the pass pipeline (:mod:`repro.compiler.passes`) and the
event-driven scheduler (:mod:`repro.sim.engine`).  Ops without def/use
annotations remain valid (they simply have no graph edges), so legacy
``Program`` construction keeps working unchanged.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metaop.lowering import (
    MetaOpIssue,
    lower_bconv,
    lower_decomp_polymult,
    lower_elementwise,
    lower_ntt,
)


class OpKind(enum.Enum):
    NTT = "ntt"
    INTT = "intt"
    BCONV = "bconv"                     # Modup / Moddown conversions
    DECOMP_POLY_MULT = "decomp_poly_mult"
    EW_MULT = "ew_mult"                 # elementwise modular multiply
    EW_ADD = "ew_add"                   # elementwise modular add/sub
    AUTOMORPHISM = "automorphism"       # Galois permutation (data movement)
    TRANSPOSE = "transpose"             # 4-step NTT global transpose
    HBM_LOAD = "hbm_load"
    HBM_STORE = "hbm_store"


#: Operator classes counted as NTT / Bconv / DecompPolyMult in Figure 1/7.
OPERATOR_CLASS = {
    OpKind.NTT: "ntt",
    OpKind.INTT: "ntt",
    OpKind.BCONV: "bconv",
    OpKind.DECOMP_POLY_MULT: "decomp",
    OpKind.EW_MULT: "ewise",
    OpKind.EW_ADD: "ewise",
    OpKind.AUTOMORPHISM: "data",
    OpKind.TRANSPOSE: "data",
    OpKind.HBM_LOAD: "hbm",
    OpKind.HBM_STORE: "hbm",
}


@dataclass
class HighLevelOp:
    """One high-level operator instance.

    Shape parameters (used per kind):

    * ``poly_degree`` — ring degree N.
    * ``channels`` — RNS channels processed (output channels for BCONV).
    * ``in_channels`` — BCONV source channels (the Meta-OP depth L).
    * ``depth`` — DECOMP_POLY_MULT accumulation depth (dnum).
    * ``polys`` — polynomials processed (e.g. 2 for a ciphertext).
    * ``elements`` — explicit element count for EW ops (overrides shape).
    * ``bytes_moved`` — explicit byte count for HBM ops.
    * ``traffic_words_per_element`` — on-chip words moved per EW element
      (default 3: two reads + one write; Pmult uses 2.5 because the shared
      plaintext operand feeds both ciphertext polynomials once).

    Dataflow annotations:

    * ``defs`` — value ids this op produces.
    * ``uses`` — value ids this op consumes.  A use with no producer in the
      program is an external input (ciphertext/plaintext arguments).
    * ``role`` — optional scheme-semantic tag consumed by the static
      verifier (:mod:`repro.compiler.verify`): ``"tensor"`` (ct x ct
      multiply), ``"pmult"`` (ct x pt multiply), ``"rescale"``,
      ``"modraise"``.  Empty for scheme-agnostic ops; has no effect on
      compute or traffic modelling.
    * ``key`` — optional evaluation-key slot this op consumes (on a
      keyswitch inner product / PBS) or streams in (on the matching
      ``HBM_LOAD``): ``"relin"``, ``"rot:<step>"``, ``"conj"``,
      ``"boot"`` (CKKS bootstrap keyswitch), ``"bsk"``/``"ksk"`` (TFHE).
      Consumed by :mod:`repro.compiler.verify.keys`; has no effect on
      compute or traffic modelling.
    """

    kind: OpKind
    label: str = ""
    poly_degree: int = 0
    channels: int = 1
    in_channels: int = 0
    depth: int = 0
    polys: int = 1
    elements: Optional[int] = None
    bytes_moved: int = 0
    traffic_words_per_element: float = 3.0
    defs: Tuple[str, ...] = ()
    uses: Tuple[str, ...] = ()
    role: str = ""
    key: str = ""

    # ------------------------------ compute ---------------------------- #

    def meta_op_issues(self, j: int = 8) -> List[MetaOpIssue]:
        """The Meta-OP stream this operator issues (empty for movement)."""
        if self.kind in (OpKind.NTT, OpKind.INTT):
            return lower_ntt(self.poly_degree, self.channels * self.polys, j)
        if self.kind == OpKind.BCONV:
            issues = []
            for _ in range(self.polys):
                issues.extend(
                    lower_bconv(self.in_channels, self.channels,
                                self.poly_degree, j)
                )
            return issues
        if self.kind == OpKind.DECOMP_POLY_MULT:
            return lower_decomp_polymult(
                self.depth, self.poly_degree, self.channels, j,
                output_polys=self.polys,
            )
        if self.kind == OpKind.EW_MULT:
            return lower_elementwise(self.num_elements(), depth=1, j=j)
        # EW_ADD occupies cores but uses only the addition array; movement
        # and HBM ops issue no Meta-OPs.
        return []

    def num_elements(self) -> int:
        if self.elements is not None:
            return self.elements
        return self.poly_degree * self.channels * self.polys

    # ------------------------------ traffic ---------------------------- #

    def sram_bytes(self, word_bytes: float) -> int:
        """On-chip bytes moved (operand reads + result writes)."""
        n = self.poly_degree
        wb = word_bytes
        if self.kind in (OpKind.NTT, OpKind.INTT):
            from repro.poly.radix import radix8_stage_count

            stages = sum(radix8_stage_count(n))
            return int(2 * n * self.channels * self.polys * stages * wb)
        if self.kind == OpKind.BCONV:
            # step 1: read+write L channels; step 2: read L, write K
            l_in, k = self.in_channels, self.channels
            return int((3 * l_in + k) * n * self.polys * wb)
        if self.kind == OpKind.DECOMP_POLY_MULT:
            # per output poly+channel: read depth digit words and depth evk
            # words per coefficient, write one
            return int(
                (2 * self.depth + 1) * n * self.channels * self.polys * wb
            )
        if self.kind == OpKind.EW_MULT or self.kind == OpKind.EW_ADD:
            return int(self.traffic_words_per_element * self.num_elements() * wb)
        if self.kind in (OpKind.AUTOMORPHISM, OpKind.TRANSPOSE):
            return int(2 * n * self.channels * self.polys * wb)
        return 0

    def hbm_bytes(self) -> int:
        if self.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            return self.bytes_moved
        return 0

    def footprint_bytes(self, word_bytes: float) -> int:
        """Peak resident bytes under per-polynomial time-sharing.

        Unlike :meth:`sram_bytes` (total traffic), this is the simultaneous
        on-chip *footprint* time-sharing must find room for, assuming the
        time-sharing granularity of Section 5.4: one polynomial (or one
        decomposition digit) in flight at a time, with streamed operands
        (evaluation keys) excluded.
        """
        n = self.poly_degree
        wb = word_bytes
        if self.kind in (OpKind.NTT, OpKind.INTT):
            return int(2 * n * self.channels * wb)          # in + out, 1 poly
        if self.kind == OpKind.BCONV:
            return int((self.in_channels + self.channels) * n * wb)
        if self.kind == OpKind.DECOMP_POLY_MULT:
            # one raised digit in flight + the two output accumulators
            return int(3 * n * self.channels * wb)
        if self.kind == OpKind.EW_MULT or self.kind == OpKind.EW_ADD:
            return int(3 * (self.num_elements() // max(1, self.polys)) * wb)
        if self.kind in (OpKind.AUTOMORPHISM, OpKind.TRANSPOSE):
            return int(2 * n * self.channels * wb)
        return 0

    @property
    def operator_class(self) -> str:
        return OPERATOR_CLASS[self.kind]

    def trace_args(self) -> dict:
        """JSON-safe shape parameters for telemetry (only non-defaults)."""
        out = {}
        if self.poly_degree:
            out["poly_degree"] = self.poly_degree
        if self.channels != 1:
            out["channels"] = self.channels
        if self.in_channels:
            out["in_channels"] = self.in_channels
        if self.depth:
            out["depth"] = self.depth
        if self.polys != 1:
            out["polys"] = self.polys
        if self.elements is not None:
            out["elements"] = self.elements
        if self.bytes_moved:
            out["bytes_moved"] = self.bytes_moved
        return out

    def __repr__(self) -> str:
        tag = self.label or self.kind.value
        return f"<{tag}: N={self.poly_degree} ch={self.channels} x{self.polys}>"


@dataclass
class Program:
    """A dataflow graph of operators for one workload (plus metadata).

    ``ops`` holds the insertion order, which for every builder in this
    package is already a valid schedule (producers precede consumers).
    The graph view lives in :meth:`dependency_edges`/:meth:`topo_order`;
    ``metadata`` is scratch space for compiler passes (traffic annotations,
    pass provenance).  ``inputs`` optionally declares the external value
    ids the program legitimately consumes; when set, the linter treats any
    other undefined use as an error (``ALC301``) instead of silently
    assuming it is an argument.
    """

    name: str
    ops: List[HighLevelOp] = field(default_factory=list)
    poly_degree: int = 0
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)
    inputs: Tuple[str, ...] = ()

    def add(self, op: HighLevelOp) -> "Program":
        self.ops.append(op)
        return self

    def extend(self, ops) -> "Program":
        self.ops.extend(ops)
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def total_hbm_bytes(self) -> int:
        return sum(op.hbm_bytes() for op in self.ops)

    def ops_of_kind(self, kind: OpKind) -> List[HighLevelOp]:
        return [op for op in self.ops if op.kind == kind]

    # ------------------------------ graph view -------------------------- #

    def dependency_edges(self) -> Dict[int, Tuple[int, ...]]:
        """Producer edges: op index -> sorted indices it depends on.

        Resolution rules (RAW + WAW):

        * a use of ``v`` binds to the closest *earlier* def of ``v``; if
          none exists but ``v`` is defined later, it binds to the first
          later def (so a scrambled DAG still resolves — a cycle is then
          possible and :meth:`topo_order` reports it);
        * a redefinition of ``v`` depends on the previous def of ``v``
          (write-after-write keeps reused accumulator ids ordered);
        * a use with no def anywhere is an external program input.
        """
        def_sites: Dict[str, List[int]] = {}
        for i, op in enumerate(self.ops):
            for v in op.defs:
                def_sites.setdefault(v, []).append(i)
        edges: Dict[int, set] = {}
        for i, op in enumerate(self.ops):
            preds = set()
            for v in op.uses:
                sites = def_sites.get(v)
                if not sites:
                    continue                      # external input
                k = bisect_left(sites, i)
                if k > 0:
                    preds.add(sites[k - 1])       # closest earlier def
                elif sites[0] != i:
                    preds.add(sites[0])           # forward binding
                # else: the op's own def is the only site — external use
            for v in op.defs:
                sites = def_sites[v]
                k = sites.index(i)
                if k > 0:
                    preds.add(sites[k - 1])       # WAW chain
            preds.discard(i)
            if preds:
                edges[i] = tuple(sorted(preds))
        return edges

    def external_inputs(self) -> Tuple[str, ...]:
        """Value ids consumed but never produced (program arguments)."""
        defined = {v for op in self.ops for v in op.defs}
        seen: List[str] = []
        for op in self.ops:
            for v in op.uses:
                if v not in defined and v not in seen:
                    seen.append(v)
        return tuple(seen)

    def topo_order(self) -> List[int]:
        """Deterministic topological order of the dataflow graph (op indices).

        Kahn's algorithm with a min-heap on the op index, so whenever the
        insertion order is already topological (true for all builders in
        this package) the result *is* ``range(len(ops))``.  Raises
        ``ValueError`` when the def/use graph has a cycle.
        """
        edges = self.dependency_edges()
        n = len(self.ops)
        succs: Dict[int, List[int]] = {}
        indeg = [0] * n
        for i, preds in edges.items():
            indeg[i] = len(preds)
            for p in preds:
                succs.setdefault(p, []).append(i)
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for s in succs.get(i, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != n:
            stuck = [self.ops[i].label or self.ops[i].kind.value
                     for i in range(n) if i not in set(order)]
            raise ValueError(
                f"dependency cycle in program {self.name!r} involving "
                f"{stuck[:5]}"
            )
        return order

    def linearize(self) -> List[HighLevelOp]:
        """The ops in :meth:`topo_order`."""
        return [self.ops[i] for i in self.topo_order()]

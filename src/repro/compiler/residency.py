"""On-chip residency: what the 64+2 MB scratchpad must hold, and when.

Section 5.4's time-sharing claim is a statement about residency: under
per-polynomial time-sharing every operator's working footprint fits in
the on-chip SRAM, while evaluation keys and HBM transfers stream.  This
module is the one place that accounting lives.  :func:`residency` makes a
single walk over :meth:`Program.topo_order` and returns the order, the
live value bytes at each position, every op's footprint and the peak;
:func:`live_set` is the interval sweep it (and the evaluation-key working
set of :mod:`repro.compiler.verify.keys`) runs on.

Consumers: the liveness capacity notes (``ALC402``/``ALC403``), the
static analyzer's peak occupancy (``ALC602``), ``SpillInsertionPass``,
the key working set, and the SRAM design-space sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compiler.ops import HighLevelOp, OpKind, Program


def value_bytes(op: HighLevelOp, word_bytes: float) -> int:
    """On-chip footprint of the value(s) ``op`` defines (0 for HBM ops)."""
    if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
        return 0
    if op.kind in (OpKind.EW_MULT, OpKind.EW_ADD):
        return int(op.num_elements() * word_bytes)
    return int(op.poly_degree * op.channels * op.polys * word_bytes)


def live_set(order: Sequence[int],
             intervals: Iterable[Tuple[int, int, int]]
             ) -> Tuple[List[int], int, Optional[int]]:
    """Interval sweep over the positions of ``order``.

    Each interval ``(first, last, size)`` holds ``size`` bytes from
    position ``first`` through ``last`` inclusive.  Returns the bytes live
    at every position, the peak, and the op index (``order[position]``)
    where the peak is first reached — ``None`` when nothing is ever live.
    """
    delta = [0] * (len(order) + 1)
    for first, last, size in intervals:
        delta[first] += size
        delta[last + 1] -= size
    live: List[int] = []
    total, peak = 0, 0
    peak_index: Optional[int] = None
    for pos, i in enumerate(order):
        total += delta[pos]
        live.append(total)
        if total > peak:
            peak, peak_index = total, i
    return live, peak, peak_index


@dataclass(frozen=True)
class Residency:
    """The on-chip residency of one program on one word size."""

    order: Tuple[int, ...]           # op indices in topological order
    live_bytes: Tuple[int, ...]      # per position: after its defs, before its expiries
    footprints: Tuple[int, ...]      # per op index; 0 for HBM ops
    peak_bytes: int
    peak_index: Optional[int]        # op index where the peak first occurs

    @property
    def max_footprint_bytes(self) -> int:
        """The largest single-op working set: what time-sharing must fit."""
        return max(self.footprints, default=0)

    def first_overflow(self, capacity: int) -> Optional[int]:
        """Op index where the live set first exceeds ``capacity``."""
        return next((self.order[pos] for pos, b in enumerate(self.live_bytes)
                     if b > capacity), None)

    def oversized(self, capacity: int) -> List[int]:
        """Op indices (topological order) whose own footprint exceeds
        ``capacity`` — exactly where ``SpillInsertionPass`` spills."""
        return [i for i in self.order if self.footprints[i] > capacity]


def residency(program: Program, word_bytes: float) -> Residency:
    """One walk over ``program.topo_order()``.

    A defined value is live from its defining op through its last use; an
    op that defines nothing keeps its bytes to the end of the program.
    Raises ``ValueError`` on a dependency cycle, like ``topo_order``.
    """
    order = program.topo_order()
    ops = [program.ops[i] for i in order]
    ends = [len(ops) - 1] * len(ops)
    producer: Dict[str, int] = {}            # value id -> defining position
    for pos, op in enumerate(ops):
        for v in op.uses:
            if v in producer:
                ends[producer[v]] = pos
        if op.defs:
            ends[pos] = pos
        for v in op.defs:
            producer[v] = pos
    live, peak, peak_index = live_set(
        order, ((pos, ends[pos], value_bytes(op, word_bytes))
                for pos, op in enumerate(ops)))
    return Residency(
        order=tuple(order),
        live_bytes=tuple(live),
        footprints=tuple(op.footprint_bytes(word_bytes)
                         for op in program.ops),
        peak_bytes=peak,
        peak_index=peak_index,
    )

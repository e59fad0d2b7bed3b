"""Slot-based data management (paper Section 5.3, Figure 5(b)).

Every polynomial is distributed across the computing units *by slot*: unit
``u`` stores slots ``[u * N/U, (u+1) * N/U)`` of **every** channel of
**every** dnum group.  Consequently:

* DecompPolyMult (same slot across dnum groups) is unit-local;
* Modup/Moddown (same slot across channels) is unit-local;
* NTT becomes unit-local through the 4-step decomposition, whose only global
  step is the transpose (handled by the dedicated transpose RF).

:class:`SlotPartition` computes the placement, verifies the locality
properties, and accounts per-unit storage so a working set can be checked
against the 512KB local scratchpads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import AlchemistConfig


@dataclass(frozen=True)
class SlotPartition:
    """Placement of one polynomial family over the computing units."""

    config: AlchemistConfig
    poly_degree: int

    @staticmethod
    def is_partitionable(poly_degree: int, num_units: int) -> bool:
        """Whether a ring degree admits the Figure 5(b) slot placement.

        The degree must be a power of two, and degree and unit count must
        divide one another so every unit holds a whole number of slots (or
        a whole polynomial, when N < units).  This is the precondition
        :class:`SlotPartition` enforces at construction; the static
        verifier (``ALC200``) checks the same predicate without
        constructing placements.
        """
        n = poly_degree
        if n < 1 or n & (n - 1):
            return False
        return n % num_units == 0 or num_units % n == 0

    def __post_init__(self) -> None:
        n, u = self.poly_degree, self.config.num_units
        if n < 1 or n & (n - 1):
            raise ValueError("polynomial degree must be a power of two")
        if not self.is_partitionable(n, u):
            raise ValueError(
                f"degree {n} and unit count {u} must divide one another"
            )

    # ------------------------------ placement -------------------------- #

    @property
    def slots_per_unit(self) -> int:
        """Slots of each polynomial held by one unit (>= 1)."""
        return max(1, self.poly_degree // self.config.num_units)

    @property
    def active_units(self) -> int:
        """Units actually holding data (all of them unless N < units)."""
        return min(self.config.num_units, self.poly_degree)

    def unit_of_slot(self, slot: int) -> int:
        if not 0 <= slot < self.poly_degree:
            raise ValueError(f"slot {slot} out of range")
        return slot // self.slots_per_unit

    def slot_map(self) -> np.ndarray:
        """Unit index for every slot (Figure 5(b) placement)."""
        return np.arange(self.poly_degree) // self.slots_per_unit

    # ------------------------------ locality --------------------------- #

    def decomp_polymult_is_local(self) -> bool:
        """Same slot of all dnum groups lands in the same unit: trivially
        true under slot partitioning (placement ignores the group index)."""
        return True

    def modup_is_local(self) -> bool:
        """Same slot of all channels lands in the same unit: ditto."""
        return True

    def fourstep_split(self) -> tuple:
        """The (n1, n2) 4-step factorization: n1 = number of active units'
        column height, n2 = slots per unit, so each unit's sub-NTT runs on
        its private slots."""
        n1 = self.poly_degree // self.slots_per_unit
        return n1, self.slots_per_unit

    def sub_ntt_points(self) -> int:
        """Size of the per-unit sub-NTT (128 for N=16384 at 128 units)."""
        return self.slots_per_unit

    # ------------------------------ storage ---------------------------- #

    def bytes_per_unit(self, num_channels: int, num_polys: int = 1) -> int:
        """Local-SRAM bytes one unit needs for a ciphertext working set."""
        words = self.slots_per_unit * num_channels * num_polys
        return int(np.ceil(words * self.config.word_bytes))

    def fits_local_sram(self, num_channels: int, num_polys: int = 1) -> bool:
        return (
            self.bytes_per_unit(num_channels, num_polys)
            <= self.config.local_sram_bytes
        )

    def max_resident_polys(self, num_channels: int) -> int:
        """How many full RNS polynomials fit in one local scratchpad."""
        per_poly = self.bytes_per_unit(num_channels, 1)
        if per_poly == 0:
            return 0
        return int(self.config.local_sram_bytes // per_poly)

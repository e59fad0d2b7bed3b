"""The on-chip SRAM residency sweep (paper Section 5.4)."""

import pytest

from repro.analysis.dse import sram_residency_sweep
from repro.compiler.ckks_programs import bootstrapping_program


def test_sram_residency_sweep_smallest_resident_is_66mb():
    rows = sram_residency_sweep(bootstrapping_program())
    assert [r["onchip_mb"] for r in rows] == pytest.approx(
        [18.0, 34.0, 66.0, 130.0])
    assert [r["resident"] for r in rows] == [False, False, True, True]
    occupancy = {round(r["onchip_mb"]): r["occupancy"] for r in rows}
    assert occupancy[66] == pytest.approx(0.73, abs=0.005)
    assert occupancy[18] == pytest.approx(2.67, abs=0.005)

"""Scheduling-time working-set checks (paper Section 5.4).

The time-sharing scheduler's decisions now come from the residency walk
(``repro.compiler.residency``), its spill insertion from
``SpillInsertionPass`` and its locality check from the slot-partition
analysis; these tests hold those replacements to the scheduler's claims.
"""

from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    keyswitch_program,
    pmult_program,
)
from repro.compiler.passes import SpillInsertionPass
from repro.compiler.passes.base import PassContext
from repro.compiler.verify import SlotPartitionAnalysis, lint_program
from repro.hw.config import ALCHEMIST_DEFAULT


def test_resident_program_unchanged_by_spill_pass():
    ctx = PassContext(config=ALCHEMIST_DEFAULT)
    for builder in (pmult_program, cmult_program, keyswitch_program):
        prog = builder()
        assert SpillInsertionPass().run(prog, ctx) is prog, builder.__name__


def test_locality_validation_passes():
    """Every operator is unit-local under slot partitioning, apart from
    the explicit transpose/automorphism movement ops (ALC200-202)."""
    for builder in (cmult_program, keyswitch_program, bootstrapping_program):
        report = lint_program(builder(),
                              analyses=[SlotPartitionAnalysis()])
        assert report.diagnostics == [], report.format()

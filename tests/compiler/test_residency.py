"""Tests for the on-chip residency walk (paper Section 5.4).

One walk over one topological order feeds the liveness capacity notes
(ALC402/403), the analyzer's peak occupancy (ALC602), SpillInsertionPass
and the evaluation-key working set; the pinned table below holds every
consumer to the same numbers.
"""

import pytest

from repro.cli import _workloads
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    keyswitch_program,
    pmult_program,
)
from repro.compiler.cost.analyzer import analyze_program
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.passes import SpillInsertionPass
from repro.compiler.passes.base import PassContext
from repro.compiler.residency import live_set, residency
from repro.compiler.verify import analyze_keys, lint_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.simulator import CycleSimulator

WB = ALCHEMIST_DEFAULT.word_bytes
CAPACITY = ALCHEMIST_DEFAULT.total_onchip_bytes

#: program -> (peak bytes, peak op, ALC402 op, #ALC403, max footprint,
#: key working-set peak), as the pre-unification walks computed them.
PINNED = {
    "pmult": (26542080, 0, None, 0, 39813120, 0),
    "hadd": (26542080, 0, None, 0, 39813120, 0),
    "keyswitch": (87588864, 10, 10, 0, 50429952, 134479872),
    "cmult": (153944064, 12, 2, 0, 50429952, 134479872),
    "rotation": (114130944, 11, 5, 0, 50429952, 134479872),
    "bootstrapping": (1698693120, 68, 6, 0, 50429952, 1472200704),
    "helr": (1698693120, 370, 9, 0, 50429952, 1344798720),
    "lola-enc": (85819392, 9, 0, 0, 3317760, 39813120),
    "lola-plain": (81100800, 1, 1, 0, 3317760, 39370752),
    "pbs-i": (4459069440, 3, 2, 5, 8932294656, 92995584),
    "pbs-ii": (7031881728, 7, 2, 5, 21092106240, 170852352),
    "bfv-cmult": (29491200, 3, None, 0, 11059200, 14155776),
}


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


def _diags(program, code):
    return [d for d in lint_program(program).diagnostics if d.code == code]


def test_pinned_table_covers_every_workload(workloads):
    assert set(PINNED) == set(workloads)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_residency_numbers(workloads, name):
    peak, peak_op, alc402, n403, footprint, key_peak = PINNED[name]
    program = workloads[name]
    res = residency(program, WB)
    report = analyze_program(program)
    assert (res.peak_bytes, res.peak_index) == (peak, peak_op)
    assert (report.peak_occupancy_bytes,
            report.peak_occupancy_index) == (peak, peak_op)
    assert res.first_overflow(CAPACITY) == alc402
    assert [d.op_index for d in _diags(program, "ALC402")] == (
        [] if alc402 is None else [alc402])
    assert len(_diags(program, "ALC403")) == n403
    assert res.max_footprint_bytes == footprint
    keys = analyze_keys(program)
    assert (keys.peak_resident_bytes if keys else 0) == key_peak


@pytest.mark.parametrize("name", sorted(PINNED))
def test_capacity_messages_state_the_shared_result(workloads, name):
    """ALC402 states the true peak; ALC602 names SpillInsertionPass only
    where that pass changes the program."""
    program = workloads[name]
    report = analyze_program(program)
    for d in _diags(program, "ALC402"):
        assert f"peaks at {report.peak_occupancy_bytes / 1e6:.1f} MB" \
            in d.message
        assert f"op{report.peak_occupancy_index}" in d.message
    ctx = PassContext(config=ALCHEMIST_DEFAULT)
    spills = SpillInsertionPass().run(program, ctx) is not program
    for d in _diags(program, "ALC602"):
        assert d.op_index == report.peak_occupancy_index
        assert ("SpillInsertionPass" in d.message) == spills


def test_alc602_spill_cycles_match_the_simulated_spill_traffic(workloads):
    program = workloads["pbs-i"]
    spilled = SpillInsertionPass().run(
        program, PassContext(config=ALCHEMIST_DEFAULT))
    sim = CycleSimulator()
    extra = (sim.run(spilled).total_hbm_cycles
             - sim.run(program).total_hbm_cycles)
    (note,) = _diags(program, "ALC602")
    assert f"~{extra:,.0f} HBM cycles" in note.message


# ------------------------------ Section 5.4 ------------------------------- #


def test_basic_operators_fit_onchip():
    """Section 5.4: 64+2 MB suffices for the evaluated workloads — every
    op's footprint fits on the basic operators, so nothing spills."""
    for builder in (pmult_program, cmult_program, keyswitch_program):
        res = residency(builder(), WB)
        assert res.oversized(CAPACITY) == [], builder.__name__
        assert 0 < res.max_footprint_bytes / CAPACITY < 1


def test_bootstrapping_fits_onchip():
    assert residency(bootstrapping_program(), WB).max_footprint_bytes \
        <= CAPACITY


def test_hbm_ops_have_zero_footprint():
    """HBM loads (evk streaming) do not count against residency."""
    prog = Program("keys_only")
    prog.add(HighLevelOp(OpKind.HBM_LOAD, bytes_moved=10**9))
    res = residency(prog, WB)
    assert res.footprints == (0,)
    assert (res.max_footprint_bytes, res.peak_bytes) == (0, 0)
    assert res.peak_index is None


# ------------------------------ the walk ---------------------------------- #


def test_live_set_counts_after_defs_before_expiries():
    live, peak, peak_index = live_set(
        [7, 8, 9], [(0, 0, 5), (0, 2, 1), (1, 2, 4)])
    assert live == [6, 5, 5]
    assert (peak, peak_index) == (6, 7)


def test_defless_op_stays_live_to_the_end():
    prog = Program("p")
    prog.add(HighLevelOp(OpKind.EW_ADD, "sink", poly_degree=64))
    prog.add(HighLevelOp(OpKind.EW_ADD, "tail", poly_degree=64,
                         defs=("t",)))
    res = residency(prog, WB)
    one = int(64 * WB)
    assert res.live_bytes == (one, 2 * one)


def test_residency_follows_topo_order_and_rejects_cycles():
    prog = Program("fwd")
    prog.add(HighLevelOp(OpKind.EW_ADD, "b", poly_degree=64,
                         defs=("b",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "a", poly_degree=64, defs=("a",)))
    assert residency(prog, WB).order == (1, 0) == tuple(prog.topo_order())
    prog.ops[1] = HighLevelOp(OpKind.EW_ADD, "a", poly_degree=64,
                              defs=("a",), uses=("b",))
    with pytest.raises(ValueError, match="dependency cycle"):
        residency(prog, WB)

"""Tests for the trace collector and its producer hooks."""

import numpy as np
import pytest

from repro.compiler.ckks_programs import (
    cmult_program,
    hadd_program,
    keyswitch_program,
    pmult_program,
    rotation_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.hw.memory import HBMModel, LocalScratchpad, TransposeBuffer
from repro.metaop.meta_op import AccessPattern, MetaOp, MetaOpExecutor
from repro.sim.simulator import CycleSimulator
from repro.telemetry import TraceCollector

TABLE7_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program,
)


@pytest.fixture(scope="module")
def traced_cmult():
    collector = TraceCollector()
    report = CycleSimulator(collector=collector).run(cmult_program())
    return collector, report


def test_tracing_off_is_bit_identical():
    """The Table 7 calibration must not move by a single bit with tracing
    disabled vs the pre-telemetry simulator (collector=None path)."""
    plain = CycleSimulator()
    traced = CycleSimulator(collector=TraceCollector())
    for builder in TABLE7_BUILDERS + (
            lambda: pbs_batch_program(PBS_SET_I, batch=128),):
        a = plain.run(builder())
        b = traced.run(builder())
        assert a.total_compute_cycles == b.total_compute_cycles
        assert a.total_sram_cycles == b.total_sram_cycles
        assert a.total_hbm_cycles == b.total_hbm_cycles
        assert a.total_busy_core_cycles == b.total_busy_core_cycles
        assert a.pipelined_cycles == b.pipelined_cycles
        assert a.serialized_cycles == b.serialized_cycles
        for ta, tb in zip(a.timings, b.timings):
            assert ta.compute_cycles == tb.compute_cycles
            assert ta.sram_cycles == tb.sram_cycles
            assert ta.hbm_cycles == tb.hbm_cycles
            assert ta.bound == tb.bound


def test_one_event_per_op(traced_cmult):
    collector, report = traced_cmult
    assert len(collector.events) == len(report.timings)
    for e, t in zip(collector.events, report.timings):
        assert e.compute_cycles == t.compute_cycles
        assert e.sram_cycles == t.sram_cycles
        assert e.hbm_cycles == t.hbm_cycles
        assert e.bound == t.bound
        assert e.waves == t.waves
        assert e.meta_ops == t.meta_ops
        assert e.duration_cycles == pytest.approx(
            max(t.compute_cycles, t.sram_cycles, t.hbm_cycles))


def test_event_schedule_matches_report_timeline(traced_cmult):
    """Collector start/end assignment == SimulationReport.timeline()."""
    collector, report = traced_cmult
    timeline = report.timeline()
    scheduled = [e for e in collector.events if e.duration_cycles > 0]
    assert len(scheduled) == len(timeline)
    for e, (label, start, end) in zip(scheduled, timeline):
        assert e.name == label
        assert e.start_cycle == pytest.approx(start)
        assert e.end_cycle == pytest.approx(end)
    assert collector.makespan_cycles() == pytest.approx(
        report.scheduled_cycles())


def test_per_resource_occupancy_never_overlaps(traced_cmult):
    """On each resource, successive ops' occupancy windows are disjoint."""
    collector, _ = traced_cmult
    free = {"compute": 0.0, "sram": 0.0, "hbm": 0.0}
    for e in collector.events:
        needs = {"compute": e.compute_cycles, "sram": e.sram_cycles,
                 "hbm": e.hbm_cycles}
        for resource, cycles in needs.items():
            if cycles > 0:
                assert e.start_cycle >= free[resource] - 1e-9
                free[resource] = e.start_cycle + cycles


def test_component_utilization_matches_report(traced_cmult):
    collector, report = traced_cmult
    expected = report.utilization_by_class()
    got = collector.component_utilization()
    assert got.keys() == expected.keys()
    for cls in expected:
        assert got[cls] == pytest.approx(expected[cls])


def test_bound_histogram_counts_every_op(traced_cmult):
    collector, report = traced_cmult
    hist = collector.bound_histogram()
    assert sum(hist.values()) == len(report.timings)
    assert set(hist) <= {"compute", "sram", "hbm", "free"}
    assert hist["hbm"] >= 1          # cmult streams evaluation keys


def test_bandwidth_occupancy_bounds(traced_cmult):
    collector, _ = traced_cmult
    occ = collector.bandwidth_occupancy()
    assert set(occ) == {"compute", "sram", "hbm"}
    for value in occ.values():
        assert 0.0 <= value <= 1.0
    # cmult is HBM-bound: the HBM lane must be the most occupied
    assert occ["hbm"] == max(occ.values())


def test_summary_dict_structure(traced_cmult):
    collector, report = traced_cmult
    summary = collector.summary_dict()
    prog = summary["programs"]["cmult"]
    assert prog["num_ops"] == len(report.timings)
    assert prog["makespan_cycles"] == pytest.approx(
        collector.makespan_cycles("cmult"))
    assert prog["meta_ops"] == sum(t.meta_ops for t in report.timings)
    assert summary["num_events"] == len(collector.events)


def test_multiple_programs_tracked_separately():
    collector = TraceCollector()
    sim = CycleSimulator(collector=collector)
    sim.run(pmult_program())
    sim.run(hadd_program())
    assert set(collector.summary_dict()["programs"]) == {"pmult", "hadd"}
    assert collector.bound_histogram("pmult") == {"compute": 1}
    assert collector.bound_histogram("hadd") == {"sram": 1}


def test_program_scope_misuse_raises():
    collector = TraceCollector()
    with pytest.raises(RuntimeError):
        collector.record_op(
            HighLevelOp(OpKind.EW_ADD, elements=8),
            CycleSimulator().time_op(HighLevelOp(OpKind.EW_ADD, elements=8)),
        )
    collector.begin_program("a", ALCHEMIST_DEFAULT)
    with pytest.raises(RuntimeError):
        collector.begin_program("b", ALCHEMIST_DEFAULT)


def test_meta_op_executor_hook():
    collector = TraceCollector()
    ex = MetaOpExecutor(j=4, collector=collector)
    op = MetaOp(4, 3, AccessPattern.SLOTS)
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    ex.execute(op, a, a, q=97)
    ex.execute(op, a, a, q=97)
    totals = collector.meta_op_totals()
    assert totals["meta_ops"] == ex.tally.meta_ops == 2
    assert totals["core_cycles"] == ex.tally.core_cycles
    assert totals["raw_mults"] == ex.tally.raw_mults
    assert collector.meta_op_events[0].pattern == "slots"


def test_memory_model_hooks():
    collector = TraceCollector()
    hbm = HBMModel(bandwidth_bytes_per_cycle=1000.0, collector=collector)
    hbm.transfer_cycles(5000)
    pad = LocalScratchpad(capacity_bytes=1 << 20, collector=collector)
    pad.record_read(256)
    pad.record_write(128)
    tbuf = TransposeBuffer(num_units=4, word_bytes=4.5, collector=collector)
    tbuf.transpose_cycles(poly_words=100, words_per_cycle=8)
    totals = collector.memory_totals()
    assert totals["hbm"] == 5000
    assert totals["sram_read"] == 256
    assert totals["sram_write"] == 128
    assert totals["transpose"] == int(2 * 100 * 4.5)


def test_memory_models_untouched_without_collector():
    hbm = HBMModel(bandwidth_bytes_per_cycle=1000.0)
    assert hbm.transfer_cycles(5000) == 5.0
    pad = LocalScratchpad(capacity_bytes=1 << 20)
    pad.record_read(256)
    assert pad.bytes_read == 256


def test_zero_cost_ops_get_zero_duration_markers():
    collector = TraceCollector()
    program = Program("markers").add(
        HighLevelOp(OpKind.HBM_LOAD, "nothing", bytes_moved=0))
    CycleSimulator(collector=collector).run(program)
    (event,) = collector.events
    assert event.bound == "free"
    assert event.duration_cycles == 0.0


def test_cost_reports_in_summary_dict(traced_cmult):
    from repro.compiler.ckks_programs import cmult_program
    from repro.compiler.cost import analyze_program

    collector, _ = traced_cmult
    assert "analyze" not in collector.summary_dict()   # untraced convention
    collector.record_cost_report(analyze_program(cmult_program()))
    analyze = collector.summary_dict()["analyze"]
    assert analyze["programs"] == 1
    assert analyze["reports"][0]["program"] == "cmult"
    assert analyze["reports"][0]["bottleneck"] == "hbm"

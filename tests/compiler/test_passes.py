"""Tests for the compiler pass pipeline (validate, fuse, spill, traffic)."""

import pytest

from repro.compiler.ckks_programs import cmult_program, pmult_program
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.passes import (
    CompileError,
    FuseElementwisePass,
    SpillInsertionPass,
    TrafficAnnotationPass,
    ValidatePass,
    default_pipeline,
    validation_errors,
)
from repro.compiler.passes.base import PassContext
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.simulator import CycleSimulator


def _ctx():
    return PassContext(config=ALCHEMIST_DEFAULT)


def _oversized_op(label="huge"):
    # ~250 MB elementwise footprint, far beyond the 66 MB of on-chip SRAM
    return HighLevelOp(OpKind.EW_MULT, label, poly_degree=1 << 16,
                       channels=300, polys=2,
                       defs=(label,), uses=(f"{label}.in",))


# ------------------------------ validate --------------------------------- #

def test_validate_accepts_all_builders():
    for builder in (cmult_program, pmult_program):
        assert validation_errors(builder()) == []


def test_validate_rejects_cycles():
    prog = Program("cyclic")
    prog.add(HighLevelOp(OpKind.EW_ADD, "a", poly_degree=8,
                         defs=("x",), uses=("y",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "b", poly_degree=8,
                         defs=("y",), uses=("x",)))
    with pytest.raises(CompileError, match="cycle"):
        ValidatePass().run(prog, _ctx())


def test_validate_rejects_shapeless_ntt():
    prog = Program("bad")
    prog.add(HighLevelOp(OpKind.NTT, "ntt0", poly_degree=0))
    errors = validation_errors(prog)
    assert any("poly_degree" in e for e in errors)


def test_validate_rejects_duplicate_out_alias():
    prog = Program("dup")
    prog.add(HighLevelOp(OpKind.EW_ADD, "a", poly_degree=8,
                         defs=("ks.out",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "b", poly_degree=8,
                         defs=("ks.out",)))
    assert any("already defined" in e for e in validation_errors(prog))


def test_validate_nonstrict_notes_instead_of_raising():
    prog = Program("bad")
    prog.add(HighLevelOp(OpKind.NTT, "ntt0", poly_degree=0))
    ctx = _ctx()
    out = ValidatePass(strict=False).run(prog, ctx)
    assert out is prog
    assert ctx.notes


# ------------------------------ fusion ----------------------------------- #

def test_fusion_merges_single_consumer_chain():
    prog = Program("chain")
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=256,
                         defs=("t",), uses=("a", "b")))
    prog.add(HighLevelOp(OpKind.EW_ADD, "add", poly_degree=256,
                         defs=("out",), uses=("t", "c")))
    out = FuseElementwisePass().run(prog, _ctx())
    assert len(out.ops) == 1
    fused = out.ops[0]
    assert fused.kind == OpKind.EW_MULT
    assert fused.defs == ("out",)
    assert set(fused.uses) == {"a", "b", "c"}
    # the intermediate write + re-read disappears
    wb = ALCHEMIST_DEFAULT.word_bytes
    before = sum(op.sram_bytes(wb) for op in prog.ops)
    assert sum(op.sram_bytes(wb) for op in out.ops) < before
    out.linearize()                  # fused graph stays acyclic


def test_fusion_respects_fanout():
    prog = Program("fanout")
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=256,
                         defs=("t",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "add", poly_degree=256,
                         defs=("out",), uses=("t",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "other", poly_degree=256,
                         defs=("out2",), uses=("t",)))
    out = FuseElementwisePass().run(prog, _ctx())
    assert out is prog               # intermediate has two consumers


def test_fusion_shrinks_cmult_without_breaking_bounds():
    prog = cmult_program()
    fused = FuseElementwisePass().run(prog, _ctx())
    assert len(fused.ops) < len(prog.ops)
    sim = CycleSimulator()
    assert (sim.run(fused).pipelined_cycles
            <= sim.run(prog).pipelined_cycles + 1e-6)


# ------------------------------ spill ------------------------------------ #

def test_spill_inserted_adjacent_to_offending_op():
    """Regression: spill/fill must land *at* the overflow, not at program
    end (the old ``schedule_with_spills`` appended them after all compute)."""
    prog = Program("huge")
    prog.add(HighLevelOp(OpKind.EW_ADD, "before", poly_degree=64,
                         defs=("before",)))
    prog.add(_oversized_op())
    prog.add(HighLevelOp(OpKind.EW_ADD, "after", poly_degree=64,
                         defs=("after",), uses=("huge",)))
    out = SpillInsertionPass().run(prog, _ctx())
    labels = [op.label for op in out.ops]
    assert labels == ["before", "huge.spill", "huge", "huge.fill", "after"]
    store, fill = out.ops[1], out.ops[3]
    assert store.kind == OpKind.HBM_STORE
    assert fill.kind == OpKind.HBM_LOAD
    assert store.bytes_moved == fill.bytes_moved > 0
    # dataflow: the op waits for the eviction; the fill waits for the op
    edges = out.dependency_edges()
    assert 1 in edges[2]
    assert 2 in edges[3]


def test_spill_resident_program_is_unchanged():
    prog = pmult_program()
    assert SpillInsertionPass().run(prog, _ctx()) is prog


def test_spill_oversized_moves_twice_the_overflow():
    """An oversized op is evicted and restored once: the spill/fill pair
    moves twice its footprint's overflow past the on-chip capacity."""
    prog = Program("huge")
    prog.add(_oversized_op())
    overflow = (prog.ops[0].footprint_bytes(ALCHEMIST_DEFAULT.word_bytes)
                - ALCHEMIST_DEFAULT.total_onchip_bytes)
    assert overflow > 0
    spilled = SpillInsertionPass().run(prog, _ctx())
    assert [op.kind for op in spilled.ops] == [
        OpKind.HBM_STORE, OpKind.EW_MULT, OpKind.HBM_LOAD]
    assert spilled.total_hbm_bytes() == 2 * overflow


# ------------------------------ traffic ---------------------------------- #

def test_traffic_annotation_totals():
    prog = cmult_program()
    out = TrafficAnnotationPass().run(prog, _ctx())
    traffic = out.metadata["traffic"]
    wb = ALCHEMIST_DEFAULT.word_bytes
    assert traffic["sram_bytes"] == sum(
        op.sram_bytes(wb) for op in prog.ops)
    assert traffic["hbm_bytes"] == prog.total_hbm_bytes()
    assert len(traffic["per_op"]) == len(prog.ops)


# ------------------------------ manager ---------------------------------- #

def test_pass_manager_records_telemetry():
    pm = default_pipeline()
    pm.run(cmult_program())
    names = [t.pass_name for t in pm.telemetry]
    assert names == ["validate", "spill-insertion", "annotate-traffic"]
    by_pass = pm.telemetry_by_pass()
    assert by_pass["annotate-traffic"][0].notes


def test_pass_manager_forwards_to_collector():
    from repro.telemetry import TraceCollector

    collector = TraceCollector()
    pm = default_pipeline(collector=collector)
    pm.run(cmult_program())
    assert collector.pass_telemetry == pm.telemetry


def test_default_pipeline_fuse_is_opt_in():
    names = [p.name for p in default_pipeline(fuse=True).passes]
    assert "fuse-elementwise" in names
    names = [p.name for p in default_pipeline().passes]
    assert "fuse-elementwise" not in names

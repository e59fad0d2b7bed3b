"""``check_floors`` on synthetic kernels documents: one failure each."""

import math

import pytest

from repro.kernels.bench import GATED_OPS, REQUIRED_OPS, check_floors

FLOOR = 5.0


def _doc():
    """A clean document: every op 10x faster batched, bit-identical."""
    return {"ops": {name: {"reference_ops_per_s": 2.0,
                           "batched_ops_per_s": 20.0,
                           "speedup": 10.0,
                           "bit_identical": True}
                    for name in REQUIRED_OPS}}


def _missing(ops):
    del ops["bconv"]


def _not_identical(ops):
    ops["modup"]["bit_identical"] = False


def _zero_throughput(ops):
    ops["rescale"]["reference_ops_per_s"] = 0.0


def _inconsistent(ops):
    ops["moddown"]["speedup"] = 9.0


def _below_floor(ops):
    ops["ntt_forward"].update(batched_ops_per_s=8.0, speedup=4.0)


def _nan_speedup(ops):
    for name in GATED_OPS:
        ops[name]["speedup"] = math.nan


def test_clean_document_passes():
    assert check_floors(_doc(), FLOOR) == []


@pytest.mark.parametrize("mutate,expected", [
    (_missing, ["missing op 'bconv'"]),
    (_not_identical, ["modup: backends are not bit-identical"]),
    (_zero_throughput, ["rescale: non-positive throughput"]),
    (_inconsistent, ["moddown: speedup field 9.0 does not equal"]),
    (_below_floor, ["ntt_forward: speedup 4.00x below the 5x floor"]),
    (_nan_speedup, [f"{name}: speedup field nan" for name in GATED_OPS]
     + [f"{name}: speedup nanx below" for name in GATED_OPS]),
], ids=["missing-op", "not-bit-identical", "zero-throughput",
        "inconsistent-speedup", "below-floor", "nan-speedup"])
def test_each_violation_is_reported(mutate, expected):
    doc = _doc()
    mutate(doc["ops"])
    problems = check_floors(doc, FLOOR)
    assert len(problems) == len(expected), problems
    for want in expected:
        assert any(p.startswith(want) for p in problems), (want, problems)

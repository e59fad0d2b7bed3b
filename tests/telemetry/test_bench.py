"""Tests for the BENCH_*.json benchmark runner."""

import json
import math

import pytest

from repro.baselines.published import TABLE7_BASELINES
from repro.cli import main
from repro.telemetry.bench import (
    FIG6_SCHEMA,
    GOLDENS,
    TABLE7_SCHEMA,
    bench_fig6,
    bench_table7,
    write_golden,
)
from tests.test_goldens import iter_drift

REQUIRED_OP_FIELDS = {
    "name", "kind", "operator_class", "latency_us", "start_us",
    "utilization", "bound", "compute_cycles", "sram_cycles", "hbm_cycles",
    "waves", "meta_ops", "sram_bytes", "hbm_bytes",
}


@pytest.fixture(scope="module")
def table7():
    return bench_table7()


@pytest.fixture(scope="module")
def fig6():
    return bench_fig6()


def test_table7_schema_and_operators(table7):
    assert table7["schema"] == TABLE7_SCHEMA
    assert set(table7["operators"]) == set(TABLE7_BASELINES)
    for name, entry in table7["operators"].items():
        assert entry["latency_us"] > 0
        assert entry["bound"] in ("compute", "sram", "hbm")
        assert 0 < entry["utilization"] <= 1.0
        # simulated throughput within the calibration band of the paper
        assert entry["ratio_to_paper"] == pytest.approx(1.0, rel=0.15), name
        assert entry["ops"], name
        for row in entry["ops"]:
            assert REQUIRED_OP_FIELDS <= set(row)


def test_table7_known_roofline_regimes(table7):
    ops = table7["operators"]
    assert ops["Pmult"]["bound"] == "compute"
    assert ops["Hadd"]["bound"] == "sram"
    for name in ("Keyswitch", "Cmult", "Rotation"):
        assert ops[name]["bound"] == "hbm"


def test_fig6_schema_and_apps(fig6):
    assert fig6["schema"] == FIG6_SCHEMA
    assert set(fig6["ckks_applications"]) == {
        "lola_mnist_enc", "lola_mnist_plain", "bootstrapping",
        "helr_iteration",
    }
    assert set(fig6["tfhe_pbs"]) == {"set_I", "set_II"}
    boot = fig6["ckks_applications"]["bootstrapping"]
    assert boot["latency_ms"] > 0
    assert boot["speedup_vs"]["SHARP"] == pytest.approx(1.85, rel=0.2)
    assert len(boot["ops"]) == boot["num_ops"]
    for row in boot["ops"][:5]:
        assert REQUIRED_OP_FIELDS <= set(row)
    pbs = fig6["tfhe_pbs"]["set_I"]
    assert pbs["pbs_per_sec"] > 0
    assert pbs["speedup_vs"]["Concrete_CPU"] > 1000


def test_bench_is_deterministic(table7):
    again = bench_table7()
    assert json.dumps(again, sort_keys=True) == json.dumps(
        table7, sort_keys=True)


def test_write_bench_files(tmp_path, table7, fig6):
    for stem, doc in (("BENCH_table7", table7), ("BENCH_fig6", fig6)):
        write_golden(str(tmp_path / f"{stem}.json"), doc)
    written7 = json.loads((tmp_path / "BENCH_table7.json").read_text())
    written6 = json.loads((tmp_path / "BENCH_fig6.json").read_text())
    assert written7 == json.loads(json.dumps(table7))
    assert written6["schema"] == FIG6_SCHEMA


def test_drift_checker_reports_mismatches(tmp_path):
    drift = list(iter_drift(
        {"a": {"b": 1.0}, "ops": [1, 2], "s": "x"},
        {"a": {"b": 2.0}, "ops": [1, 3], "s": "y"},
        rtol=1e-9))
    assert sorted(leaf for leaf, _, _ in drift) == ["a.b", "ops[1]", "s"]
    # tolerance: tiny float jitter is not drift
    assert list(iter_drift({"x": 1.0}, {"x": 1.0 + 1e-12}, rtol=1e-9)) == []
    # a non-finite regenerated number is drift, whatever the tolerance
    for bad in (math.nan, math.inf):
        assert [leaf for leaf, _, _ in iter_drift(
            {"x": 1.0}, {"x": bad}, rtol=1e-9)] == ["x"]
    # bool vs number is a type change, though True == 1 in Python
    assert [leaf for leaf, _, _ in iter_drift(
        {"x": True}, {"x": 1}, rtol=1e-9)] == ["x"]
    assert [leaf for leaf, _, _ in iter_drift(
        {"x": 1}, {"x": True}, rtol=1e-9)] == ["x"]
    # and the writer refuses to put a non-finite value into a golden
    with pytest.raises(ValueError):
        write_golden(str(tmp_path / "nan.json"), {"x": math.nan})


def test_cli_bench(tmp_path, capsys):
    assert main(["bench", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for stem in GOLDENS:
        assert f"{stem}.json" in out
        assert (tmp_path / f"{stem}.json").exists()

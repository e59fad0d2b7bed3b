"""End-to-end CLI contracts: exit codes and JSON anchors of ``python -m
repro`` across lint, analyze, faults and serve.

Each case runs :func:`repro.cli.main` in-process and checks its exit code
and, where the contract is about content, its stdout.  The seed-0 ``--json``
replays of ``faults`` and ``serve`` must print the committed goldens byte
for byte, twice in a row.
"""

import json
import pathlib

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

KEYSWITCH_CLASS = ("keyswitch", "cmult", "rotation")
COMPRESSED = [*KEYSWITCH_CLASS, "bootstrapping"]


def _all_reports_ok(out):
    reports = json.loads(out)
    assert len(reports) == 12
    assert all(r["ok"] for r in reports), reports


def _count(text, n):
    def check(out):
        assert out.count(text) == n, out
    return check


def _table7_anchors(out):
    # paper Table 7: the keyswitch class is HBM-bound at ~135 us, Pmult
    # is compute-bound, Hadd is SRAM-bound
    reports = json.loads(out)
    assert len(reports) == 12, [r["program"] for r in reports]
    by_name = {r["program"]: r for r in reports}
    for name in KEYSWITCH_CLASS:
        assert by_name[name]["bottleneck"] == "hbm", name
        assert abs(by_name[name]["latency_us"] - 134.5) < 0.5, name
    assert by_name["pmult"]["bottleneck"] == "compute"
    assert by_name["hadd"]["bottleneck"] == "sram"


def _compression_flips(out):
    reports = json.loads(out)
    assert len(reports) == 4, [r["program"] for r in reports]
    for r in reports:
        comp = r["compressed"]
        assert r["bottleneck"] == "hbm", r["program"]
        assert comp["bottleneck"] == "compute", r["program"]
        assert comp["pipelined_cycles"] < r["pipelined_cycles"], r["program"]
        assert comp["hbm_bytes"] < r["hbm_bytes"], r["program"]


def _fault_free_hadd(out):
    w = json.loads(out)["workloads"]["hadd"]
    assert w["inflation"] == 1.0 and not w["timeline"], w


def _storm_document(out):
    doc = json.loads(out)
    assert doc["schema"] == "alchemist-bench/serving/v1"
    assert "storm" in doc["profiles"]


SMOKES = [
    (["lint", "ckks-bootstrap", "tfhe-pbs", "bfv-mult"],
     _count("clean (0 diagnostics)", 3)),
    (["lint", "--keys"], None),
    (["lint", "--keys", "ckks-bootstrap", "tfhe-pbs", "bfv-mult"], None),
    (["lint", "--noise"], None),
    (["lint", "--json"], _all_reports_ok),
    (["analyze", "ckks-bootstrap", "tfhe-pbs", "bfv-mult", "--check"],
     _count("check: OK", 3)),
    (["analyze", "--json"], _table7_anchors),
    (["analyze", *COMPRESSED, "--compressed", "--check"],
     _count("check: OK", 4)),
    (["analyze", *COMPRESSED, "--compressed", "--json"], _compression_flips),
    (["serve", "--profile", "steady", "--requests", "100", "--compressed"],
     None),
    (["faults", "--campaign", "storm", "--seed", "7", "keyswitch", "cmult",
      "--no-mix"], None),
    (["faults", "--campaign", "scratchpad", "bootstrapping", "--no-mix"],
     None),
    (["faults", "--campaign", "none", "hadd", "--no-mix", "--json"],
     _fault_free_hadd),
    (["serve", "--profile", "steady", "--rate", "500,8000",
      "--requests", "100"], None),
    (["serve", "--profile", "diurnal", "--admission", "shed",
      "--requests", "100"], None),
    (["serve", "--profile", "storm", "--requests", "100", "--json"],
     _storm_document),
]


@pytest.mark.parametrize("argv,check", SMOKES,
                         ids=[" ".join(argv) for argv, _ in SMOKES])
def test_cli_smoke(capsys, argv, check):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if check is not None:
        check(out)


@pytest.mark.parametrize("command,stem", [("faults", "BENCH_faults"),
                                          ("serve", "BENCH_serving")])
def test_seed0_json_replays_match_golden(capsys, command, stem):
    committed = (REPO_ROOT / f"{stem}.json").read_text()
    for _ in range(2):
        assert main([command, "--seed", "0", "--json"]) == 0
        assert capsys.readouterr().out == committed

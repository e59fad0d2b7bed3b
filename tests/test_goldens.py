"""The drift gate: every committed ``BENCH_*.json`` against the code.

Each golden in :data:`repro.telemetry.bench.GOLDENS` is regenerated with
its default-config producer, compared leaf by leaf (floats within
:data:`RTOL`, so a failure names every moved number), and written through
:func:`~repro.telemetry.bench.write_golden` to prove the committed file is
reproduced byte for byte.  Adding a golden is one ``GOLDENS`` entry: ``repro
bench`` writes it and this file gates it.

Three invariant gates need no regeneration:

* ``BENCH_kernels.json`` is wall-clock timing on the producing machine, so
  only its schema, op coverage, bit-identity flags and >= 5x speedup floors
  are checked;
* the static cost analyzer must predict the committed Table 7 numbers
  without simulating;
* an inert ``CompressionModel`` is a bit-identical no-op, and the default
  compression point takes every HBM-bound keyswitch-class operator off the
  HBM roof.
"""

import json
import math
import pathlib
from dataclasses import replace

import pytest

from repro.compiler.ckks_programs import bootstrapping_program
from repro.compiler.cost import analyze_program
from repro.hw.config import ALCHEMIST_DEFAULT, CompressionModel
from repro.kernels.bench import PAPER_SPEEDUP_FLOOR, SCHEMA, check_floors
from repro.telemetry.bench import GOLDENS, TABLE7_OPERATORS, write_golden

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Relative tolerance on numeric leaves (Table 7, Figure 6 and the static
#: predictions, which reach the same cycles by a different summation).
RTOL = 1e-9


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def iter_drift(committed, fresh, rtol, path=""):
    """Yield ``(json_path, committed_value, fresh_value)`` mismatches.

    A non-finite fresh number is always drift, and so is a bool where the
    other side has a number (``True == 1`` in Python, not in JSON).
    """
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            if key not in committed or key not in fresh:
                yield (sub, committed.get(key, "<missing>"),
                       fresh.get(key, "<missing>"))
            else:
                yield from iter_drift(committed[key], fresh[key], rtol, sub)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            yield (f"{path}.length", len(committed), len(fresh))
            return
        for i, (c, f) in enumerate(zip(committed, fresh)):
            yield from iter_drift(c, f, rtol, f"{path}[{i}]")
    elif _is_number(committed) and _is_number(fresh):
        tol = rtol * max(abs(committed), abs(fresh), 1.0)
        if not (math.isfinite(fresh) and abs(committed - fresh) <= tol):
            yield (path, committed, fresh)
    elif (committed != fresh
          or isinstance(committed, bool) != isinstance(fresh, bool)):
        yield (path, committed, fresh)


def _committed(stem):
    return json.loads((REPO_ROOT / f"{stem}.json").read_text())


@pytest.mark.parametrize("stem", list(GOLDENS))
def test_golden_matches_regeneration(stem, tmp_path):
    fresh = GOLDENS[stem]()
    drift = list(iter_drift(_committed(stem), fresh, RTOL))
    assert not drift, drift[:40]
    out = tmp_path / f"{stem}.json"
    write_golden(str(out), fresh)
    assert out.read_bytes() == (REPO_ROOT / f"{stem}.json").read_bytes()


def test_kernels_golden_invariants():
    committed = _committed("BENCH_kernels")
    assert committed.get("schema") == SCHEMA
    # the >= 5x floors are promised at the paper chain, not a quick run
    assert committed.get("mode") == "paper"
    assert check_floors(committed, PAPER_SPEEDUP_FLOOR) == []


def test_static_predictions_match_table7():
    committed = _committed("BENCH_table7")["operators"]
    drift = []
    for name, builder in TABLE7_OPERATORS.items():
        report = analyze_program(builder())
        want = committed[name]
        static = {
            "cycles": {
                "compute": report.totals.compute_cycles,
                "sram": report.totals.sram_cycles,
                "hbm": report.totals.hbm_cycles,
            },
            "latency_us": report.seconds * 1e6,
            "bound": report.bottleneck,
        }
        golden = {key: want[key] for key in ("cycles", "latency_us", "bound")}
        drift.extend(iter_drift(golden, static, RTOL, name))
    assert not drift, drift


def test_compressed_invariants():
    inert = replace(ALCHEMIST_DEFAULT, compression=CompressionModel())
    compressed = ALCHEMIST_DEFAULT.with_compression()
    builders = dict(TABLE7_OPERATORS, Bootstrapping=bootstrapping_program)
    problems = []
    for name, builder in builders.items():
        program = builder()
        base = analyze_program(program)
        quiet = analyze_program(program, inert)
        comp = analyze_program(program, compressed)
        # the inert model is a timing no-op, bit for bit
        for field in ("pipelined_cycles", "serialized_cycles",
                      "total_hbm_bytes", "total_key_hbm_bytes",
                      "bottleneck"):
            if getattr(base, field) != getattr(quiet, field):
                problems.append((name, "inert model moved", field))
        # the default point: keyless ops untouched, keyed ops move half the
        # key bytes, get faster, and leave the HBM roof if they were on it
        if base.total_key_hbm_bytes == 0:
            if comp.pipelined_cycles != base.pipelined_cycles:
                problems.append((name, "keyless op moved"))
            continue
        if comp.total_key_hbm_bytes != base.total_key_hbm_bytes // 2:
            problems.append((name, "key wire bytes not halved"))
        if not comp.pipelined_cycles < base.pipelined_cycles:
            problems.append((name, "no faster under compression"))
        if base.bottleneck == "hbm" and comp.bottleneck == "hbm":
            problems.append((name, "still hbm-bound"))
    assert not problems, problems

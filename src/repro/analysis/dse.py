"""Design-space exploration and ablations (paper Section 5.4).

Quantifies the design decisions DESIGN.md calls out:

* **j = 8 lanes** — "using 16, 32 or other values greater than 8 ... would
  result in low utilization for NTT" (Section 4.2): the radix-8 butterfly
  occupies exactly 8 multiplier lanes, so wider cores idle ``1 - 8/j`` of
  their lanes on NTT work, while narrower cores multiply the per-core
  control overhead.  The sweet spot falls out of combining the lane
  utilization with the calibrated area model.
* **lazy reduction** — per-workload compute savings of the Meta-OP versus
  eagerly-reduced execution (Table 2/3 aggregated).
* **unit count / HBM bandwidth / SRAM** — the machine-level sweeps.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.opcount import workload_mult_counts
from repro.compiler.ops import Program
from repro.compiler.residency import residency
from repro.hw.area import AreaModel
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.simulator import CycleSimulator


# ------------------------------ j parameter ---------------------------- #


def ntt_lane_utilization(j: int) -> float:
    """Fraction of ``j`` multiplier lanes a radix-8 butterfly keeps busy.

    ``j <= 8``: butterflies split across multiple issues, all lanes busy.
    ``j > 8``: one butterfly per issue occupies only 8 lanes (the paper's
    argument for not going wider).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return min(1.0, 8.0 / j)


def j_parameter_study(js=(2, 4, 8, 16, 32), ntt_fraction: float = 0.75
                      ) -> List[Dict]:
    """Perf-per-area of the core array as a function of the lane width.

    Total multiplier lanes are held constant (the paper's 16,384); ``j``
    trades cores-per-lane against per-core control overhead.  Effective
    throughput weights NTT work (lane-limited for ``j > 8``) by its share
    of the compute mix (~75% across the Figure 1 workloads).
    """
    from repro.hw.area import (
        _CORE_CONTROL_AREA_MM2,
        _LANE_LOGIC_AREA_MM2,
        _MULT_AREA_MM2,
    )

    total_lanes = ALCHEMIST_DEFAULT.total_mult_lanes
    rows = []
    for j in js:
        cores = total_lanes // j
        lane_area = total_lanes * (_MULT_AREA_MM2 + _LANE_LOGIC_AREA_MM2)
        control_area = cores * _CORE_CONTROL_AREA_MM2
        area = lane_area + control_area
        ntt_util = ntt_lane_utilization(j)
        effective = ntt_fraction * ntt_util + (1 - ntt_fraction) * 1.0
        throughput = total_lanes * effective
        rows.append({
            "j": j,
            "cores": cores,
            "ntt_lane_utilization": ntt_util,
            "effective_throughput": throughput,
            "core_array_area_mm2": area,
            "perf_per_area": throughput / area,
        })
    return rows


def best_j(js=(2, 4, 8, 16, 32)) -> int:
    """The lane width maximizing perf/area — the paper picks 8."""
    rows = j_parameter_study(js)
    return max(rows, key=lambda r: r["perf_per_area"])["j"]


# ------------------------------ lazy reduction ------------------------- #


def lazy_reduction_ablation(programs: Dict[str, Program]) -> Dict[str, Dict]:
    """Compute-side speedup of the Meta-OP's lazy reduction per workload.

    The eager variant executes the same operator stream with per-product
    Barrett reductions (the Table 2/3 "Origin" column); the ratio of raw
    multiplications bounds the compute-bound speedup.
    """
    out = {}
    for name, prog in programs.items():
        counts = workload_mult_counts(prog)
        out[name] = {
            "origin_mults": counts.total_origin,
            "metaop_mults": counts.total_metaop,
            "compute_speedup": counts.total_origin / max(1, counts.total_metaop),
            "reduction_percent": counts.reduction_percent,
        }
    return out


# ------------------------------ machine sweeps ------------------------- #


def unit_count_sweep(program: Program, unit_counts=(32, 64, 128, 256)
                     ) -> List[Dict]:
    rows = []
    for units in unit_counts:
        config = ALCHEMIST_DEFAULT.with_overrides(num_units=units)
        report = CycleSimulator(config).run(program)
        area = AreaModel(config).total_area()
        rows.append({
            "units": units,
            "seconds": report.seconds,
            "area_mm2": area,
            "perf_per_area": 1.0 / (report.seconds * area),
            "bottleneck": report.bottleneck,
        })
    return rows


def hbm_bandwidth_sweep(program: Program, gbps_values=(500, 1000, 2000, 4000)
                        ) -> List[Dict]:
    rows = []
    for gbps in gbps_values:
        config = ALCHEMIST_DEFAULT.with_overrides(
            hbm_bandwidth_gbps=float(gbps))
        report = CycleSimulator(config).run(program)
        rows.append({
            "hbm_gbps": gbps,
            "seconds": report.seconds,
            "bottleneck": report.bottleneck,
        })
    return rows


def sram_residency_sweep(program: Program, local_kb_values=(128, 256, 512, 1024)
                         ) -> List[Dict]:
    """Section 5.4 residency per on-chip size: the largest single-op
    footprint must fit (evaluation keys stream, so they never count)."""
    rows = []
    for kb in local_kb_values:
        config = ALCHEMIST_DEFAULT.with_overrides(local_sram_kb=kb)
        working_set = residency(program, config.word_bytes).max_footprint_bytes
        capacity = config.total_onchip_bytes
        rows.append({
            "onchip_mb": capacity / (1 << 20),
            "resident": working_set <= capacity,
            "occupancy": working_set / capacity,
            "area_mm2": AreaModel(config).total_area(),
        })
    return rows

"""Scalability microbenchmark study (section 8.3, Figure 12).

* Figure 12a: 4 types, object count swept; execution time normalized
  to BRANCH at the smallest point.  CUDA's gap to BRANCH widens with
  object count (to 5.6x at the top of the paper's sweep); COAL and
  TypePointer track BRANCH much more closely (3.3x / 2.0x).
* Figure 12b: 16M objects (scaled), type count swept 1..32; everything
  degrades together as SIMD utilisation collapses and the techniques
  converge.

Counts are scaled 1/32 from the paper's axes (1M..32M objects -> 32K..
1M) -- see DESIGN.md.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..gpu.config import GPUConfig, scaled_config
from ..gpu.machine import Machine
from ..techniques import microbench_techniques
from ..workloads.microbench import BranchMicrobench, ObjectMicrobench
from .figures import FigureResult
from .report import format_table
from .runner import Point, evaluate, point

#: techniques shown in Figure 12 (BRANCH handled separately): the
#: registry's microbench set -- the paper's three plus ``soa``
FIG12_TECHNIQUES = microbench_techniques()

DEFAULT_OBJECT_SWEEP = (32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576)
DEFAULT_TYPE_SWEEP = (1, 2, 4, 8, 16, 32)
DEFAULT_FIXED_OBJECTS = 524_288   # stands in for the paper's 16M


def _micro_cycles(technique: str, num_objects: int, num_types: int,
                  config: Optional[GPUConfig] = None) -> float:
    cfg = config or scaled_config()
    heap_cap = max(1 << 22, num_objects * 64)
    if technique == "branch":
        m = Machine("cuda", config=cfg, heap_capacity=1 << 22)
        bench = BranchMicrobench(m, num_objects, num_types)
    else:
        m = Machine(technique, config=cfg, heap_capacity=heap_cap)
        bench = ObjectMicrobench(m, num_objects, num_types)
    return bench.run(iterations=1).cycles


def fig12a_points(
    object_counts: Sequence[int] = DEFAULT_OBJECT_SWEEP,
    num_types: int = 4,
    config: Optional[GPUConfig] = None,
) -> Dict[Tuple[str, int], Point]:
    """Figure 12a's runs, keyed by (technique, object count)."""
    return {(tech, n): point(_micro_cycles, technique=tech, num_objects=n,
                             num_types=num_types, config=config)
            for n in object_counts
            for tech in ("branch",) + FIG12_TECHNIQUES}


def fig12b_points(
    type_counts: Sequence[int] = DEFAULT_TYPE_SWEEP,
    num_objects: int = DEFAULT_FIXED_OBJECTS,
    config: Optional[GPUConfig] = None,
) -> Dict[Tuple[str, int], Point]:
    """Figure 12b's runs, keyed by (technique, type count)."""
    return {(tech, t): point(_micro_cycles, technique=tech,
                             num_objects=num_objects, num_types=t,
                             config=config)
            for t in type_counts
            for tech in ("branch",) + FIG12_TECHNIQUES}


def fig12a_object_scaling(
    object_counts: Sequence[int] = DEFAULT_OBJECT_SWEEP,
    num_types: int = 4,
    config: Optional[GPUConfig] = None,
) -> FigureResult:
    """Execution time vs object count, normalized to BRANCH @ smallest."""
    cycles = evaluate(fig12a_points(object_counts, num_types, config))
    base = cycles[("branch", object_counts[0])]
    norm = {k: v / base for k, v in cycles.items()}
    # slowdown vs BRANCH at the largest point (the paper quotes 5.6x
    # for CUDA, 3.3x COAL, 2.0x TypePointer at 32M objects)
    top = object_counts[-1]
    summary = {
        tech: cycles[(tech, top)] / cycles[("branch", top)]
        for tech in FIG12_TECHNIQUES
    }
    header = ["objects", "branch"] + list(FIG12_TECHNIQUES)
    rows = [
        [n, norm[("branch", n)]] + [norm[(t, n)] for t in FIG12_TECHNIQUES]
        for n in object_counts
    ]
    table = format_table(
        header, rows,
        title="Figure 12a: normalized execution time vs #objects "
              "(4 types; paper top-end slowdowns vs BRANCH: CUDA 5.6x, "
              "COAL 3.3x, TP 2.0x)",
    )
    return FigureResult("fig12a", norm, summary, table)


def fig12b_type_scaling(
    type_counts: Sequence[int] = DEFAULT_TYPE_SWEEP,
    num_objects: int = DEFAULT_FIXED_OBJECTS,
    config: Optional[GPUConfig] = None,
) -> FigureResult:
    """Execution time vs types per warp, normalized to BRANCH @ 1 type."""
    cycles = evaluate(fig12b_points(type_counts, num_objects, config))
    base = cycles[("branch", type_counts[0])]
    norm = {k: v / base for k, v in cycles.items()}
    top = type_counts[-1]
    summary = {
        tech: cycles[(tech, top)] / cycles[("branch", top)]
        for tech in FIG12_TECHNIQUES
    }
    header = ["types", "branch"] + list(FIG12_TECHNIQUES)
    rows = [
        [t, norm[("branch", t)]] + [norm[(tc, t)] for tc in FIG12_TECHNIQUES]
        for t in type_counts
    ]
    table = format_table(
        header, rows,
        title="Figure 12b: normalized execution time vs #types per warp "
              "(paper: universal degradation; gaps shrink at 32 types)",
    )
    return FigureResult("fig12b", norm, summary, table)

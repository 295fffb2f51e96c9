"""Table harnesses: Table 1 (access model) and Table 2 (workloads).

Table 1 is analytic in the paper; here we *measure* it: a controlled
microbenchmark counts the global accesses each technique performs for
operation A (get vTable*) as objects and types scale, verifying

    CUDA:        Acc(A) proportional to #objects touched
    COAL:        Acc(A) proportional to #types (ranges), not #objects
    TypePointer: Acc(A) == 0

Table 2 reports each workload's measured characteristics next to the
published row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..gpu.config import GPUConfig, scaled_config
from ..gpu.isa import ROLE_DISPATCH_OVERHEAD, ROLE_LOAD_VTABLE
from ..gpu.machine import Machine
from ..workloads import WORKLOAD_REGISTRY, workload_names
from ..workloads.microbench import ObjectMicrobench
from .figures import FigureResult
from .report import format_table
from .runner import DEFAULT_SCALE, Point, evaluate, point, run_one


@dataclass
class AccessCounts:
    """Operation-A access counts for one configuration."""

    technique: str
    num_objects: int
    num_types: int
    vtable_ptr_sectors: int      # op A as embedded-pointer loads
    lookup_sectors: int          # op A as COAL range-table walk


def measure_access_counts(
    technique: str,
    num_objects: int,
    num_types: int = 4,
    config: Optional[GPUConfig] = None,
) -> AccessCounts:
    """Run the dispatch microbenchmark and read the role counters."""
    cfg = config or scaled_config()
    m = Machine(technique, config=cfg,
                heap_capacity=max(1 << 22, num_objects * 64))
    bench = ObjectMicrobench(m, num_objects, num_types)
    stats = bench.run(iterations=1)
    return AccessCounts(
        technique=technique,
        num_objects=num_objects,
        num_types=num_types,
        vtable_ptr_sectors=stats.role_transactions.get(ROLE_LOAD_VTABLE, 0),
        lookup_sectors=stats.role_transactions.get(ROLE_DISPATCH_OVERHEAD, 0),
    )


#: techniques Table 1 measures
TABLE1_TECHNIQUES = ("cuda", "sharedoa", "concord", "coal", "typepointer")


def table1_points(
    object_counts: Sequence[int] = (2048, 4096, 8192, 16384),
    num_types: int = 4,
    config: Optional[GPUConfig] = None,
) -> Dict[Tuple[str, int], Point]:
    """Table 1's runs, keyed by (technique, object count)."""
    return {(tech, n): point(measure_access_counts, technique=tech,
                             num_objects=n, num_types=num_types,
                             config=config)
            for tech in TABLE1_TECHNIQUES for n in object_counts}


def table1_access_model(
    object_counts: Sequence[int] = (2048, 4096, 8192, 16384),
    num_types: int = 4,
    config: Optional[GPUConfig] = None,
) -> FigureResult:
    """Measure how operation A's accesses scale per technique."""
    counts = evaluate(table1_points(object_counts, num_types, config))
    rows: List[List] = []
    values: Dict = {}
    for (tech, n), ac in counts.items():
        op_a = ac.vtable_ptr_sectors + (
            ac.lookup_sectors if tech == "coal" else 0
        )
        values[(tech, n)] = op_a
        rows.append([tech, n, ac.vtable_ptr_sectors, ac.lookup_sectors])
    # summary: growth factor of op-A accesses from the smallest to the
    # largest object count (CUDA ~ objects ratio; COAL/TP ~ flat)
    lo, hi = object_counts[0], object_counts[-1]
    summary = {
        tech: (values[(tech, hi)] / values[(tech, lo)])
        if values[(tech, lo)] else 0.0
        for tech in TABLE1_TECHNIQUES
    }
    table = format_table(
        ["technique", "objects", "A: vTable*/tag sectors", "A: lookup sectors"],
        rows,
        title="Table 1 (measured): operation-A global accesses "
              "(CUDA ~ #objects; COAL ~ #types; TypePointer = 0)",
    )
    return FigureResult("table1", values, summary, table)


def table2_workloads(
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    workloads: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Workload characteristics, measured vs published."""
    rows: List[List] = []
    values: Dict = {}
    names = list(workloads) if workloads is not None else workload_names()
    for name in names:
        rec = run_one(name, "cuda", scale=scale, config=config)
        paper = WORKLOAD_REGISTRY[name].paper
        values[name] = {
            "objects": rec.num_objects,
            "types": rec.num_types,
            "vfuncs": rec.num_vfuncs,
            "vfunc_pki": rec.vfunc_pki,
        }
        rows.append([
            name, rec.num_objects, paper.objects, rec.num_types, paper.types,
            rec.num_vfuncs, paper.vfuncs,
            round(rec.vfunc_pki, 1), paper.vfunc_pki,
        ])
    table = format_table(
        ["workload", "#obj", "#obj(paper)", "#types", "#types(paper)",
         "#vfuncs", "#vfuncs(paper)", "vFuncPKI", "PKI(paper)"],
        rows,
        title="Table 2: workload characteristics (measured vs published; "
              "object counts are scaled down by design)",
    )
    summary = {
        name: v["vfunc_pki"] for name, v in values.items()
    }
    return FigureResult("table2", values, summary, table)

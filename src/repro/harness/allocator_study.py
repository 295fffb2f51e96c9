"""Allocator-effect experiments (section 8.2: Figure 10a/10b, init phase).

* Figure 10a sweeps SharedOA's initial region size (objects per first
  chunk) and reports COAL's performance normalized to CUDA.
* Figure 10b reports SharedOA's external fragmentation over the same
  sweep.
* The init-phase comparison models section 8.2's ~80x faster object
  initialisation for host-side SharedOA vs device-side CUDA ``new``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..gpu.config import GPUConfig, scaled_config
from ..gpu.machine import Machine
from ..runtime.unified import SharedObjectSpace
from ..workloads import make_workload, workload_names
from .figures import FigureResult
from .report import format_table
from .runner import DEFAULT_SCALE, Point, cell_point, evaluate, geomean, point

#: chunk sizes swept in Figure 10, scaled 1/64 from the paper's 4K..4M
#: (our workloads hold ~1/64 of the paper's object counts)
DEFAULT_CHUNK_SIZES = (64, 256, 1024, 4096, 16384, 65536)


def coal_chunk_run(workload: str, chunk: int, scale: float,
                   config: Optional[GPUConfig], seed: int
                   ) -> Tuple[float, float]:
    """One COAL run whose SharedOA first chunk holds ``chunk`` objects:
    (cycles, external fragmentation)."""
    m = Machine("coal", config=config or scaled_config(),
                initial_chunk_objects=chunk)
    wl = make_workload(workload, m, scale=scale, seed=seed)
    cycles = wl.run().cycles
    return cycles, m.allocator.external_fragmentation()


def fig10_points(
    workloads: Optional[Sequence[str]] = None,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> Dict[Tuple[str, object], Point]:
    """Figure 10's runs: each workload's CUDA cell (the normalisation
    of Figure 10a) under ``(name, "cuda")``, and one COAL run per chunk
    size under ``(name, chunk)``."""
    names = list(workloads) if workloads is not None else workload_names()
    grid = {(n, "cuda"): cell_point(n, "cuda", scale, None, config, seed)
            for n in names}
    grid.update({(n, c): point(coal_chunk_run, workload=n, chunk=c,
                               scale=scale, config=config, seed=seed)
                 for n in names for c in chunk_sizes})
    return grid


def fig10_chunk_sweep(
    workloads: Optional[Sequence[str]] = None,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    scale: float = DEFAULT_SCALE,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> Tuple[FigureResult, FigureResult]:
    """Returns (fig10a_performance, fig10b_fragmentation)."""
    names = list(workloads) if workloads is not None else workload_names()
    runs = evaluate(fig10_points(names, chunk_sizes, scale, config, seed))
    perf = {(n, c): runs[(n, "cuda")].cycles / runs[(n, c)][0]
            for n in names for c in chunk_sizes}
    frag = {(n, c): runs[(n, c)][1] for n in names for c in chunk_sizes}

    gm_perf = {
        chunk: geomean(perf[(n, chunk)] for n in names)
        for chunk in chunk_sizes
    }
    avg_frag = {
        chunk: sum(frag[(n, chunk)] for n in names) / len(names)
        for chunk in chunk_sizes
    }

    header = ["workload"] + [str(c) for c in chunk_sizes]
    rows_a = [
        [n] + [perf[(n, c)] for c in chunk_sizes] for n in names
    ] + [["GM"] + [gm_perf[c] for c in chunk_sizes]]
    table_a = format_table(
        header, rows_a,
        title="Figure 10a: COAL performance vs initial chunk size, "
              "normalized to CUDA (paper: stable across sizes)",
    )
    rows_b = [
        [n] + [frag[(n, c)] for c in chunk_sizes] for n in names
    ] + [["AVG"] + [avg_frag[c] for c in chunk_sizes]]
    table_b = format_table(
        header, rows_b,
        title="Figure 10b: SharedOA external fragmentation vs initial "
              "chunk size (paper: 17%..27%)",
    )
    return (
        FigureResult("fig10a", perf, gm_perf, table_a),
        FigureResult("fig10b", frag, avg_frag, table_b),
    )


# ----------------------------------------------------------------------
# init-phase comparison (section 8.2 text: ~80x)
# ----------------------------------------------------------------------
@dataclass
class InitComparison:
    objects: int
    cuda_cycles: float
    sharedoa_cycles: float

    @property
    def speedup(self) -> float:
        return self.cuda_cycles / self.sharedoa_cycles


def init_cycles(technique: str, num_objects: int,
                config: Optional[GPUConfig] = None) -> float:
    """Modeled cost of initialising ``num_objects`` objects under
    ``"cuda"`` (device-side ``new``) or ``"sharedoa"`` (host-side)."""
    from ..runtime.typesystem import TypeDescriptor

    Thing = TypeDescriptor(
        f"InitThing#{num_objects}",
        fields=[("x", "u64")],
        methods={"touch": lambda ctx, objs: ctx.alu(1)},
    )
    m = Machine(technique, config=config or scaled_config(),
                heap_capacity=1 << 24)
    if technique == "cuda":
        m.new_objects(Thing, num_objects)
        return float(m.allocator.stats.modeled_alloc_cycles)
    space = SharedObjectSpace(m)
    space.shared_new(Thing, num_objects)
    return float(space.init_phase_report().total_cycles)


def init_points(num_objects: int = 50000,
                config: Optional[GPUConfig] = None) -> Dict[str, Point]:
    """The two init models, keyed by technique."""
    return {tech: point(init_cycles, technique=tech,
                        num_objects=num_objects, config=config)
            for tech in ("cuda", "sharedoa")}


def init_performance(
    num_objects: int = 50000,
    config: Optional[GPUConfig] = None,
) -> InitComparison:
    """Modeled initialisation cost: device-side CUDA new vs SharedOA.

    Uses each allocator's per-allocation cycle model (CUDA device-side
    ``new`` pays a serialised heap lock + sync; SharedOA is a host-side
    bump) plus SharedOA's one-shot vTable-patching init kernel.
    """
    cycles = evaluate(init_points(num_objects, config))
    return InitComparison(
        objects=num_objects,
        cuda_cycles=cycles["cuda"],
        sharedoa_cycles=cycles["sharedoa"],
    )

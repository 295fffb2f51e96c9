"""Experiment runner: simulator runs as points, and their caches.

Every figure in section 8 is a view over the same sweep (performance,
instruction mix, load transactions, L1 hit rate), so the runner
executes each (workload, technique) pair once per process and caches
the :class:`RunRecord`; the per-figure harnesses then slice, normalise
and tabulate.

Any simulator run is a :class:`Point` (a cell is a ``run_one`` point).
The experiment service records the values of the points it ran here,
and experiments tabulate through :func:`evaluate`, which computes
whatever is missing in-process, so serial and parallel runs share one
code path.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .. import obs
from ..gpu.config import GPUConfig, scaled_config
from ..gpu.machine import Machine
from ..techniques import figure_techniques
from ..workloads import make_workload, workload_names

#: Scale every benchmark runs at by default (fraction of each
#: workload's nominal size; nominal is already scaled down from the
#: paper -- see DESIGN.md).
DEFAULT_SCALE = 0.25

#: iterations=None means each workload's own default_iterations.
DEFAULT_ITERATIONS: Optional[int] = None


@dataclass
class RunRecord:
    """Everything one (workload, technique) run produced."""

    workload: str
    technique: str
    cycles: float
    compute_cycles: float
    memory_cycles: float
    warp_instrs: Dict[str, int]
    thread_instrs: int
    vfunc_calls: int
    vfunc_pki: float
    gld_transactions: int
    gst_transactions: int
    l1_hit_rate: float
    l2_hit_rate: float
    dram_accesses: int
    dram_row_misses: int
    const_accesses: int
    const_hits: int
    tlb_walks: int
    call_serializations: int
    role_transactions: Dict[str, int]
    role_instrs: Dict[str, int]
    role_levels: Dict[str, list]
    checksum: float
    num_objects: int
    num_types: int
    num_vfuncs: int
    external_fragmentation: float

    @property
    def total_warp_instrs(self) -> int:
        return sum(self.warp_instrs.values())


_CACHE: Dict[Tuple, RunRecord] = {}


class ReplayMemo:
    """Per-launch trace-hash memo over replay counters.

    Replay counters are a pure function of the machine's whole trace
    history (``Machine.replay_wave`` chains a hash over every wave
    since construction, seeded with the engine name and cache/DRAM
    geometry), so when repeated figure generation re-executes an
    identical launch sequence -- same workload, technique, scale and
    seed -- every wave's cache/DRAM effects come out of this memo and
    the replay stage is skipped entirely.  Functional execution still
    runs (it produces the traces the hash validates), which is what
    keeps a hit exact rather than heuristic.
    """

    #: entries kept before the memo stops learning (each entry is one
    #: wave's counter deltas; this bounds a long-lived sweep process)
    MAX_ENTRIES = 1 << 16

    def __init__(self):
        self._store: Dict[bytes, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes):
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: bytes, stats) -> None:
        if len(self._store) < self.MAX_ENTRIES:
            self._store[key] = stats


def clear_cache() -> None:
    _CACHE.clear()
    _VALUES.clear()


def cache_key(
    workload: str,
    technique: str,
    scale: float = DEFAULT_SCALE,
    iterations: Optional[int] = DEFAULT_ITERATIONS,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> Tuple:
    """The runner-cache key one (workload, technique, ...) run lands under."""
    cfg = config or scaled_config()
    return (workload, technique, scale, iterations, cfg.name, seed)


def cache_get(key: Tuple) -> Optional[RunRecord]:
    return _CACHE.get(key)


def run_one(
    workload: str,
    technique: str,
    scale: float = DEFAULT_SCALE,
    iterations: Optional[int] = DEFAULT_ITERATIONS,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
    use_cache: bool = True,
    memo: Optional[ReplayMemo] = None,
) -> RunRecord:
    """Run one workload under one technique and record the counters.

    The machine replays through ``memo`` when one is given, and
    otherwise through the process default
    (:func:`repro.gpu.machine.set_default_replay_memo`).
    """
    cfg = config or scaled_config()
    key = (workload, technique, scale, iterations, cfg.name, seed)
    if use_cache and key in _CACHE:
        obs.count("runner.cache_hits")
        return _CACHE[key]

    obs.count("runner.cache_misses")
    with obs.span("runner.run_one"):
        machine = Machine(technique, config=cfg)
        if memo is not None:
            machine.set_replay_memo(memo)
        wl = make_workload(workload, machine, scale=scale, seed=seed)
        stats = wl.run(iterations)
    record = RunRecord(
        workload=workload,
        technique=technique,
        cycles=stats.cycles,
        compute_cycles=stats.compute_cycles,
        memory_cycles=stats.memory_cycles,
        warp_instrs={c.value: n for c, n in stats.warp_instrs.items()},
        thread_instrs=stats.thread_instrs,
        vfunc_calls=stats.vfunc_calls,
        vfunc_pki=stats.vfunc_pki,
        gld_transactions=stats.global_load_transactions,
        gst_transactions=stats.global_store_transactions,
        l1_hit_rate=stats.l1_hit_rate,
        l2_hit_rate=stats.l2_hit_rate,
        dram_accesses=stats.dram_accesses,
        dram_row_misses=stats.dram_row_misses,
        const_accesses=stats.const_accesses,
        const_hits=stats.const_hits,
        tlb_walks=stats.tlb_walks,
        call_serializations=stats.call_serializations,
        role_transactions=dict(stats.role_transactions),
        role_instrs=dict(stats.role_instrs),
        role_levels={k: list(v) for k, v in stats.role_levels.items()},
        checksum=wl.checksum(),
        num_objects=wl.num_live_objects(),
        num_types=wl.num_types(),
        num_vfuncs=wl.num_vfunc_impls(),
        external_fragmentation=machine.allocator.external_fragmentation(),
    )
    if use_cache:
        _CACHE[key] = record
    return record


# ----------------------------------------------------------------------
# points: the unit of work the experiment service schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One simulator run: a module-level function, named by its module
    path so it is looked up at call time, and its keyword arguments.
    Hashable, so a run several experiments need collapses into one."""

    func: str
    kwargs: Tuple[Tuple[str, Any], ...]

    def resolve(self) -> Callable[..., Any]:
        module, _, name = self.func.rpartition(".")
        return getattr(importlib.import_module(module), name)

    def call(self) -> Any:
        return self.resolve()(**dict(self.kwargs))

    @property
    def config(self) -> Optional[GPUConfig]:
        return dict(self.kwargs).get("config")

    @property
    def is_cell(self) -> bool:
        return self.func == f"{__name__}.run_one"

    @property
    def label(self) -> str:
        """Readable, and unique among the points of one run."""
        kw = dict(self.kwargs)
        if self.is_cell:
            return (f"{kw['workload']}x{kw['technique']}"
                    + (f"@{self.config.name}" if self.config else ""))
        args = ", ".join(f"{k}={str(getattr(v, 'name', v))[:32]}"
                         for k, v in self.kwargs if v is not None)
        return f"{self.func.rpartition('.')[2]}({args})"


def point(fn: Callable[..., Any], **kwargs: Any) -> Point:
    """The point that calls module-level ``fn(**kwargs)``."""
    return Point(f"{fn.__module__}.{fn.__name__}",
                 tuple(sorted(kwargs.items())))


def cell_point(workload: str, technique: str, scale: float,
               iterations: Optional[int], config: Optional[GPUConfig],
               seed: int) -> Point:
    """The point of one ``run_one`` sweep cell."""
    return point(run_one, workload=workload, technique=technique,
                 scale=scale, iterations=iterations, config=config,
                 seed=seed)


#: values of the non-cell points the service ran for this process
#: (cell records live in ``_CACHE``)
_VALUES: Dict[Point, Any] = {}
_MISSING = object()


def _recorded(p: Point) -> Any:
    if p.is_cell:
        return _CACHE.get(cache_key(**dict(p.kwargs)), _MISSING)
    return _VALUES.get(p, _MISSING)


def record_point(p: Point, value: Any) -> None:
    """A cell seeds the runner cache; any other value the value map."""
    if p.is_cell:
        _CACHE[cache_key(**dict(p.kwargs))] = value
    else:
        _VALUES[p] = value


def forget_points(points: Iterable[Point]) -> None:
    """Drop the recorded non-cell values of ``points``."""
    for p in points:
        _VALUES.pop(p, None)


def missing_points(points: Iterable[Point]) -> List[Point]:
    """The distinct points, in first-seen order, with no recorded value."""
    return [p for p in dict.fromkeys(points) if _recorded(p) is _MISSING]


def evaluate(grid: Mapping[Any, Point]) -> Dict[Any, Any]:
    """Each point's value, keyed like ``grid``: the recorded one, or
    computed here once (a cell caches itself in ``run_one``)."""
    values: Dict[Point, Any] = {}
    for p in grid.values():
        if p not in values:
            value = _recorded(p)
            values[p] = p.call() if value is _MISSING else value
    return {key: values[p] for key, p in grid.items()}


def run_sweep(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    iterations: Optional[int] = DEFAULT_ITERATIONS,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
) -> Dict[Tuple[str, str], RunRecord]:
    """Run every (workload, technique) pair; returns the record map."""
    if techniques is None:
        techniques = figure_techniques()
    names = list(workloads) if workloads is not None else workload_names()
    out: Dict[Tuple[str, str], RunRecord] = {}
    for wl in names:
        for tech in techniques:
            out[(wl, tech)] = run_one(
                wl, tech, scale=scale, iterations=iterations,
                config=config, seed=seed,
            )
    return out


# ----------------------------------------------------------------------
# aggregation helpers
# ----------------------------------------------------------------------
def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        return float("nan")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalized(
    records: Dict[Tuple[str, str], RunRecord],
    metric: str,
    baseline: str = "sharedoa",
    invert: bool = False,
) -> Dict[Tuple[str, str], float]:
    """metric[tech]/metric[baseline] per workload (or inverted).

    ``invert=True`` turns a cost metric (cycles) into a *performance*
    ratio, matching 'Norm. Perf.' in Figure 6: baseline/technique.
    """
    out: Dict[Tuple[str, str], float] = {}
    workloads = sorted({wl for wl, _ in records})
    for wl in workloads:
        base = getattr(records[(wl, baseline)], metric)
        for (w, tech), rec in records.items():
            if w != wl:
                continue
            value = getattr(rec, metric)
            if invert:
                out[(wl, tech)] = base / value if value else float("nan")
            else:
                out[(wl, tech)] = value / base if base else float("nan")
    return out


def geomean_by_technique(
    ratios: Dict[Tuple[str, str], float]
) -> Dict[str, float]:
    by_tech: Dict[str, List[float]] = {}
    for (_, tech), v in ratios.items():
        by_tech.setdefault(tech, []).append(v)
    return {tech: geomean(vs) for tech, vs in by_tech.items()}

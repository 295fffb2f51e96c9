"""Simulator self-benchmark: the engine gate.

``python -m repro selfbench`` runs the fig6 suite once per replay
engine and writes ``BENCH_pipeline.json``.  It answers the one question
the repository benchmark (``perfbench/``, which times the whole
pipeline end to end and layer by layer) cannot: are ``fused`` and
``reference`` still bit-identical, and how much faster is ``fused``'s
replay?  Two wall-clock numbers are recorded per (engine, workload,
technique) run:

``wall_s``
    the full kernel-phase wall clock (``Workload.run``; setup is
    excluded, matching the paper's kernel-time-only methodology), and
``replay_s``
    the time spent inside ``ReplayEngine.replay_wave`` -- the stage the
    engines actually implement.  Functional capture is engine-
    independent by construction, so ``replay_s`` is the isolated cost
    of the component being swapped while ``wall_s`` tracks what a user
    of the sweep experiences end to end.

Runs are cross-checked as they go: both engines must produce identical
``cycles``/transaction counters for the same (workload, technique), so
every selfbench run doubles as an engine-equivalence check over the
full suite.  ``python -m repro sweep import`` records a report into
the sweep result database.
"""
from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..gpu.config import GPUConfig, scaled_config
from ..gpu.machine import Machine
from ..gpu.replay import ENGINE_ENV_VAR, ENGINES
from ..techniques import paper_techniques
from ..workloads import make_workload, workload_names
from .export import write_json_atomic
from .runner import geomean

#: json schema tag, bumped when the layout changes
SCHEMA = "repro-selfbench/3"

DEFAULT_OUTPUT = "BENCH_pipeline.json"


def _run_once(
    engine: str,
    workload: str,
    technique: str,
    scale: float,
    iterations: Optional[int],
    config: GPUConfig,
    seed: int,
) -> Dict:
    """One timed (engine, workload, technique) run."""
    machine = Machine(technique, config=replace(config, replay_engine=engine))
    wl = make_workload(workload, machine, scale=scale, seed=seed)
    wl.setup()
    wl._setup_done = True
    machine.reset_run()

    # wrap the engine to split out replay-stage time
    replay_time = [0.0]
    inner = machine.engine.replay_wave

    def timed(traces, stats):
        t0 = time.perf_counter()
        inner(traces, stats)
        replay_time[0] += time.perf_counter() - t0

    machine.engine.replay_wave = timed

    t0 = time.perf_counter()
    stats = wl.run(iterations)
    wall = time.perf_counter() - t0
    return {
        "engine": engine,
        "workload": workload,
        "technique": technique,
        "wall_s": wall,
        "replay_s": replay_time[0],
        # equivalence fingerprint: engines must agree on all of these
        "cycles": stats.cycles,
        "l1_accesses": stats.l1_accesses,
        "l2_accesses": stats.l2_accesses,
        "dram_accesses": stats.dram_accesses,
        "dram_row_misses": stats.dram_row_misses,
        "checksum": wl.checksum(),
    }


_FINGERPRINT = ("cycles", "l1_accesses", "l2_accesses", "dram_accesses",
                "dram_row_misses", "checksum")


def run_selfbench(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = 0.25,
    iterations: Optional[int] = None,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
    output: Optional[str] = DEFAULT_OUTPUT,
) -> Dict:
    """Time the fig6 suite under each engine; write ``output`` JSON.

    ``techniques`` defaults to the paper's Figure 6 five.
    Returns the report dict that was written.
    """
    cfg = config or scaled_config()
    names = list(workloads) if workloads is not None else workload_names()
    if techniques is None:
        techniques = paper_techniques()
    # the env var would silently override the per-run engine choice
    saved_env = os.environ.pop(ENGINE_ENV_VAR, None)
    runs: List[Dict] = []
    mismatches: List[str] = []
    try:
        for wl in names:
            for tech in techniques:
                cell = {engine: _run_once(engine, wl, tech, scale,
                                          iterations, cfg, seed)
                        for engine in ENGINES}
                runs.extend(cell.values())
                ref = cell["reference"]
                for engine, r in cell.items():
                    if any(r[k] != ref[k] for k in _FINGERPRINT):
                        mismatches.append(
                            f"{wl}/{tech}: {engine} counters diverge "
                            f"from reference"
                        )
    finally:
        if saved_env is not None:
            os.environ[ENGINE_ENV_VAR] = saved_env

    report = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "scale": scale,
        "iterations": iterations,
        "seed": seed,
        "config": cfg.name,
        "techniques": list(techniques),
        "workloads": names,
        "engines": list(ENGINES),
        "runs": runs,
        "speedup_vs_reference": _speedups(runs),
        "counters_match": not mismatches,
        "mismatches": mismatches,
    }
    if output:
        write_json_atomic(report, output)
    return report


def _speedups(runs: List[Dict]) -> Dict:
    """Per-engine speedups vs reference, per run and geomean.

    ``replay`` isolates the engine stage; ``wall`` is end to end (the
    engine-independent capture stage dilutes it toward 1x).
    """
    by_key: Dict[tuple, Dict[str, Dict]] = {}
    for r in runs:
        by_key.setdefault((r["workload"], r["technique"]), {})[r["engine"]] = r
    out: Dict[str, Dict] = {}
    for engine in ENGINES:
        if engine == "reference":
            continue
        wall_ratios: Dict[str, float] = {}
        replay_ratios: Dict[str, float] = {}
        for (wl, tech), cell in by_key.items():
            if engine not in cell or "reference" not in cell:
                continue
            ref, eng = cell["reference"], cell[engine]
            key = f"{wl}/{tech}"
            if eng["wall_s"] > 0:
                wall_ratios[key] = ref["wall_s"] / eng["wall_s"]
            if eng["replay_s"] > 0:
                replay_ratios[key] = ref["replay_s"] / eng["replay_s"]
        out[engine] = {
            "wall": wall_ratios,
            "replay": replay_ratios,
            "geomean_wall": geomean(wall_ratios.values())
            if wall_ratios else float("nan"),
            "geomean_replay": geomean(replay_ratios.values())
            if replay_ratios else float("nan"),
        }
    return out


def format_report(report: Dict) -> str:
    """Human-readable summary of a selfbench report."""
    lines = [
        f"selfbench: {len(report['workloads'])} workloads x "
        f"{len(report['techniques'])} techniques x "
        f"{len(report['engines'])} engines "
        f"(scale={report['scale']}, config={report['config']})",
    ]
    for engine, sp in report["speedup_vs_reference"].items():
        lines.append(
            f"  {engine} vs reference: "
            f"replay-stage geomean {sp['geomean_replay']:.2f}x, "
            f"end-to-end geomean {sp['geomean_wall']:.2f}x"
        )
    lines.append(
        "  engine counters "
        + ("bit-identical across the suite"
           if report["counters_match"] else
           "DIVERGED: " + "; ".join(report["mismatches"]))
    )
    return "\n".join(lines)

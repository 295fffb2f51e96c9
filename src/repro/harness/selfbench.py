"""Simulator self-benchmark: the replay engines timed against each other.

``python -m repro selfbench`` runs the fig6 suite once per replay
engine and writes ``BENCH_pipeline.json`` so the simulator's own
performance trajectory is tracked across PRs.  Two wall-clock numbers
are recorded per (engine, workload, technique) run:

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
full suite.

The run also measures the :mod:`repro.obs` instrumentation tax on the
warm (memo-hitting) path -- telemetry enabled vs disabled, interleaved
best-of-N -- and asserts it stays under
:data:`TELEMETRY_OVERHEAD_BUDGET` (the report's ``telemetry_overhead``
block; the CLI exit code enforces it).
"""
from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..gpu.config import GPUConfig, scaled_config
from ..gpu.machine import Machine
from ..gpu.replay import ENGINE_ENV_VAR, ENGINES
from ..techniques import paper_techniques
from ..workloads import make_workload, workload_names
from .export import write_json_atomic
from .runner import geomean

#: json schema tag, bumped when the layout changes
SCHEMA = "repro-selfbench/2"

DEFAULT_OUTPUT = "BENCH_pipeline.json"

#: maximum tolerated warm-path slowdown from enabled telemetry probes
TELEMETRY_OVERHEAD_BUDGET = 0.02

#: maximum tolerated warm-path slowdown from *disabled* failpoints
#: (the zero-overhead-when-disarmed contract of repro.faults)
FAILPOINT_OVERHEAD_BUDGET = 0.01


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


def measure_telemetry_overhead(
    workload: str = "TRAF",
    technique: str = "coal",
    scale: float = 0.1,
    iterations: Optional[int] = None,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
    repeats: int = 5,
    runs_per_sample: int = 3,
) -> Dict:
    """Warm-path cost of the obs probes: telemetry on vs off.

    Warms an in-process replay memo with one run, then times the
    identical (memo-hitting) run in ABBA rounds (off, on, on, off; GC
    paused) and reports the **best (smallest) per-round ratio**. The
    ABBA layout cancels slow host-load drift and position bias (turbo
    decay makes the first sample of any back-to-back sequence the
    fastest) within a round; taking the best round then discards the
    rounds a noisy host contaminated -- scheduler noise only ever adds
    time, so the cleanest round is the closest to the true ratio,
    while a genuine instrumentation regression inflates every round
    and still trips the budget.
    """
    import gc

    from .runner import ReplayMemo

    cfg = config or scaled_config()
    memo = ReplayMemo()

    def one_sample() -> float:
        total = 0.0
        for _ in range(max(1, runs_per_sample)):
            machine = Machine(technique, config=cfg)
            machine.set_replay_memo(memo)
            wl = make_workload(workload, machine, scale=scale, seed=seed)
            wl.setup()
            wl._setup_done = True
            machine.reset_run()
            t0 = time.perf_counter()
            wl.run(iterations)
            total += time.perf_counter() - t0
        return total

    one_sample()  # fill the memo: every timed run below replays out of it
    best = {True: float("inf"), False: float("inf")}
    ratios = []
    saved = obs.enabled()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            sums = {True: 0.0, False: 0.0}
            for flag in (False, True, True, False):
                obs.set_enabled(flag)
                t = one_sample()
                sums[flag] += t
                best[flag] = min(best[flag], t)
            if sums[False] > 0:
                ratios.append(sums[True] / sums[False])
    finally:
        obs.set_enabled(saved)
        if gc_was_enabled:
            gc.enable()
    overhead = min(ratios) - 1.0 if ratios else 0.0
    return {
        "workload": workload,
        "technique": technique,
        "scale": scale,
        "repeats": repeats,
        "enabled_s": best[True],
        "disabled_s": best[False],
        "overhead_frac": overhead,
        "budget_frac": TELEMETRY_OVERHEAD_BUDGET,
        "ok": overhead < TELEMETRY_OVERHEAD_BUDGET,
    }


def measure_failpoint_overhead(
    workload: str = "TRAF",
    technique: str = "coal",
    scale: float = 0.1,
    iterations: Optional[int] = None,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
    repeats: int = 5,
    runs_per_sample: int = 3,
) -> Dict:
    """Warm-path cost of the *disarmed* failpoint checkpoints.

    Same ABBA best-round estimator as
    :func:`measure_telemetry_overhead`, but the knob is
    :func:`repro.faults.set_bypass`: bypass swaps the ``faults.failpoint``
    / ``faults.mangle`` module attributes for bare stubs, i.e. the
    warm path as if the checkpoints had never been compiled in.  The
    timed sample goes through a store-backed memo (preload + run +
    flush) so the store's checkpoint call sites are actually on the
    measured path, not just the machine loop.
    """
    import gc
    import shutil
    import tempfile

    from .. import faults
    from .store import ReplayMemoStore, memo_for

    cfg = config or scaled_config()
    tmpdir = tempfile.mkdtemp(prefix="repro-fpbench-")
    store = ReplayMemoStore(tmpdir)

    def one_sample() -> float:
        total = 0.0
        for _ in range(max(1, runs_per_sample)):
            machine = Machine(technique, config=cfg)
            memo = memo_for(store, cfg, scope="fpbench")
            machine.set_replay_memo(memo)
            wl = make_workload(workload, machine, scale=scale, seed=seed)
            wl.setup()
            wl._setup_done = True
            machine.reset_run()
            t0 = time.perf_counter()
            wl.run(iterations)
            memo.flush()
            total += time.perf_counter() - t0
        return total

    one_sample()  # warm the store bucket: timed runs replay out of it
    best = {True: float("inf"), False: float("inf")}
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            sums = {True: 0.0, False: 0.0}
            for bypass in (True, False, False, True):
                faults.set_bypass(bypass)
                t = one_sample()
                sums[bypass] += t
                best[bypass] = min(best[bypass], t)
            if sums[True] > 0:
                ratios.append(sums[False] / sums[True])
    finally:
        faults.set_bypass(False)
        if gc_was_enabled:
            gc.enable()
        shutil.rmtree(tmpdir, ignore_errors=True)
    overhead = min(ratios) - 1.0 if ratios else 0.0
    return {
        "workload": workload,
        "technique": technique,
        "scale": scale,
        "repeats": repeats,
        "enabled_s": best[False],
        "bypassed_s": best[True],
        "overhead_frac": overhead,
        "budget_frac": FAILPOINT_OVERHEAD_BUDGET,
        "ok": overhead < FAILPOINT_OVERHEAD_BUDGET,
    }


def run_selfbench(
    workloads: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    scale: float = 0.25,
    iterations: Optional[int] = None,
    config: Optional[GPUConfig] = None,
    seed: int = 7,
    output: Optional[str] = DEFAULT_OUTPUT,
    repeats: int = 1,
    db_path: Optional[str] = None,
) -> Dict:
    """Time the fig6 suite under each engine; write ``output`` JSON.

    ``repeats`` runs each (engine, workload, technique) cell that many
    times and keeps the fastest (wall-clock benchmarking hygiene).
    With ``db_path`` set (and ``output`` written), the report is also
    recorded into that sweep result database via
    :func:`~repro.harness.resultdb.import_bench_file`, so engine
    regressions are queryable next to the characterization sweeps; the
    import summary lands under the report's ``resultdb`` key.
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
                cell: Dict[str, Dict] = {}
                for engine in ENGINES:
                    best = None
                    for _ in range(max(1, repeats)):
                        r = _run_once(engine, wl, tech, scale, iterations,
                                      cfg, seed)
                        if best is None or r["wall_s"] < best["wall_s"]:
                            best = r
                    cell[engine] = best
                    runs.append(best)
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

    overhead = measure_telemetry_overhead(
        workload="TRAF" if "TRAF" in names else names[0],
        scale=scale, iterations=iterations, config=cfg, seed=seed,
    )
    fp_overhead = measure_failpoint_overhead(
        workload="TRAF" if "TRAF" in names else names[0],
        scale=scale, iterations=iterations, config=cfg, seed=seed,
    )
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
        "telemetry_overhead": overhead,
        "failpoint_overhead": fp_overhead,
    }
    if output:
        write_json_atomic(report, output)
        if db_path is not None:
            from .resultdb import ResultDB, import_bench_file

            with ResultDB(db_path) as db:
                report["resultdb"] = import_bench_file(db, output)
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


# ----------------------------------------------------------------------
# service benchmark: serial vs parallel vs warm store
# ----------------------------------------------------------------------
SERVICE_SCHEMA = "repro-service-bench/1"

DEFAULT_SERVICE_OUTPUT = "BENCH_service.json"


def run_service_bench(
    names: Optional[Sequence[str]] = None,
    scale: float = 0.1,
    workers: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    quick: bool = True,
    config: Optional[GPUConfig] = None,
    output: Optional[str] = DEFAULT_SERVICE_OUTPUT,
    store_dir: Optional[str] = None,
    timeout_s: float = 900.0,
) -> Dict:
    """Benchmark the experiment service end to end; write ``output``.

    Runs the registry three times -- serial with no store (the baseline
    a plain ``python -m repro all --serial --no-store`` pays), parallel
    against a cold store, and parallel again against the now-warm store
    -- clearing the in-process sweep cache between phases so each run
    recomputes (or replays) from scratch.  Renders must match across
    all three phases (the service's bit-identity contract) and the warm
    phase must actually hit the memo; ``report["ok"]`` ands both.
    """
    import shutil
    import tempfile

    from .registry import ExperimentOptions, SMOKE_PARAMS, experiment_names
    from .service import ExperimentService, default_num_workers
    from .runner import clear_cache

    names = list(names) if names is not None else list(experiment_names())
    workers = workers if workers is not None else default_num_workers()
    options = ExperimentOptions(
        scale=scale, config=config,
        workloads=tuple(workloads) if workloads is not None else None,
        params=SMOKE_PARAMS if quick else {},
    )

    own_store = store_dir is None
    sdir = store_dir or tempfile.mkdtemp(prefix="repro-service-bench-")
    phases: Dict[str, Dict] = {}
    renders: Dict[str, Dict[str, str]] = {}

    def phase(tag: str, service: ExperimentService) -> None:
        clear_cache()
        t0 = time.perf_counter()
        run = service.run(names, options, manifest_path=None)
        wall = time.perf_counter() - t0
        phases[tag] = {
            "wall_s": wall,
            "mode": run.manifest["mode"],
            "num_workers": run.manifest["num_workers"],
            "warm_start": run.manifest["store"]["warm_start"],
            "totals": run.manifest["totals"],
        }
        renders[tag] = {n: run.render(n) for n in names}

    try:
        phase("serial_cold", ExperimentService(1, timeout_s=timeout_s,
                                               use_store=False))
        phase("parallel_cold", ExperimentService(
            workers, timeout_s=timeout_s, store_dir=sdir))
        phase("warm_store", ExperimentService(
            workers, timeout_s=timeout_s, store_dir=sdir))
    finally:
        if own_store:
            shutil.rmtree(sdir, ignore_errors=True)
        clear_cache()

    renders_match = (renders["serial_cold"] == renders["parallel_cold"]
                     == renders["warm_store"])
    warm = phases["warm_store"]["totals"]
    warm_hit = warm["memo_hits"] > 0 and warm["memo_hit_rate"] >= 0.5
    base = phases["serial_cold"]["wall_s"]

    def speedup(tag: str) -> float:
        w = phases[tag]["wall_s"]
        return base / w if w > 0 else float("nan")

    report = {
        "schema": SERVICE_SCHEMA,
        "created_unix": time.time(),
        "scale": scale,
        "quick": quick,
        "workers": workers,
        "experiments": names,
        "workloads": list(workloads) if workloads is not None else None,
        "phases": phases,
        "renders_match": renders_match,
        "warm_store_hit": warm_hit,
        "speedup_vs_serial_cold": {
            "parallel_cold": speedup("parallel_cold"),
            "warm_store": speedup("warm_store"),
        },
        "ok": renders_match and warm_hit,
    }
    if output:
        write_json_atomic(report, output)
    return report


def format_service_report(report: Dict) -> str:
    """Human-readable summary of a service benchmark report."""
    sp = report["speedup_vs_serial_cold"]
    lines = [
        f"service bench: {len(report['experiments'])} experiments, "
        f"{report['workers']} workers (scale={report['scale']}, "
        f"quick={report['quick']})",
    ]
    for tag in ("serial_cold", "parallel_cold", "warm_store"):
        ph = report["phases"][tag]
        t = ph["totals"]
        lines.append(
            f"  {tag:13s} {ph['wall_s']:7.2f}s  mode={ph['mode']:8s} "
            f"shards={t['shards']:3d}  memo hit rate "
            f"{t['memo_hit_rate']:.0%}"
        )
    lines.append(
        f"  speedup vs serial cold: parallel {sp['parallel_cold']:.2f}x, "
        f"warm store {sp['warm_store']:.2f}x"
    )
    lines.append(
        "  renders " + ("bit-identical across phases"
                        if report["renders_match"] else "DIVERGED")
        + ("; warm run hit the memo" if report["warm_store_hit"]
           else "; WARM RUN MISSED THE MEMO")
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# serving-layer benchmark: loadtest against a private cluster
# ----------------------------------------------------------------------
DEFAULT_SERVE_OUTPUT = "BENCH_serve.json"


def run_serve_bench(
    users: int = 10_000,
    workers: int = 3,
    concurrency: int = 32,
    seed: int = 7,
    output: Optional[str] = DEFAULT_SERVE_OUTPUT,
) -> Dict:
    """Benchmark the serving layer under load; write ``output``.

    ``python -m repro selfbench serve`` is a thin wrapper over
    :func:`repro.serve.loadtest.run_loadtest`: it boots a private
    consistent-hash cluster with synthetic-compute workers, replays a
    seeded zipf schedule against it, and lands the latency/throughput
    report next to the other ``BENCH_*`` files.
    """
    from ..serve.loadtest import (
        LoadtestSpec,
        run_loadtest,
        write_report,
    )

    spec = LoadtestSpec(users=users, concurrency=concurrency, seed=seed)
    report = run_loadtest(spec, num_workers=workers)
    report["created_unix"] = time.time()
    if output:
        write_report(report, output)
    return report


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
    oh = report.get("telemetry_overhead")
    if oh:
        lines.append(
            f"  telemetry overhead (warm path, {oh['workload']}/"
            f"{oh['technique']}): {oh['overhead_frac']:+.1%} "
            f"(budget {oh['budget_frac']:.0%}) -> "
            + ("ok" if oh["ok"] else "OVER BUDGET")
        )
    fp = report.get("failpoint_overhead")
    if fp:
        lines.append(
            f"  disarmed-failpoint overhead (warm path, {fp['workload']}/"
            f"{fp['technique']}): {fp['overhead_frac']:+.1%} "
            f"(budget {fp['budget_frac']:.0%}) -> "
            + ("ok" if fp["ok"] else "OVER BUDGET")
        )
    return "\n".join(lines)

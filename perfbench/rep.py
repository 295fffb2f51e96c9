"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

A fresh interpreter per repetition makes ``ru_maxrss``, import cost and
the in-process runner cache belong to that repetition alone.  The
repetition prepares (imports, store copy, tracer), runs the timed
phase, then -- untimed -- checks and summarises the simulator's
outputs and writes one JSON result file for ``run.py``.

    python3 perfbench/rep.py --workload cells --seed 7 --scale 0.05 \
        --trace 0 --work DIR --out DIR/result.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

#: Figure 6 geomeans the paper reports (EXPERIMENTS.md), per technique
PAPER_FIG6 = {"cuda": 0.59, "concord": 0.72, "sharedoa": 1.00,
              "coal": 1.06, "typepointer": 1.12}

#: the traced engine/coalesce/capture/memo self times must agree with
#: the program's own ``machine.capture/coalesce/replay`` spans within
#: this share (the gap is the launch prologue/epilogue the obs spans
#: leave out, plus wrapper entry/exit cost)
OBS_TOLERANCE = 0.05


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(s.ru_maxrss, c.ru_maxrss) / 1024.0


def pool_width() -> int:
    return len(os.sched_getaffinity(0))


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def records_digest(records) -> str:
    """Digest of every simulated counter of every RunRecord."""
    return digest([[repr(k), asdict(records[k])]
                   for k in sorted(records, key=repr)])


def checksum_failures(records) -> dict:
    """(workload, scale, seed) -> cell count, for every group whose
    techniques disagree on the functional checksum."""
    groups = {}
    for key, rec in records.items():
        groups.setdefault((key[0], key[2], key[5]), []).append(rec.checksum)
    return {g: len(v) for g, v in groups.items() if len(set(v)) > 1}


def fig6_err(gm) -> float:
    return statistics.fmean(abs(gm[t] - p) for t, p in PAPER_FIG6.items())


def span_total(nodes, name) -> float:
    total = 0.0
    for node in nodes:
        if node["name"] == name:
            total += node["total_s"]
        total += span_total(node["children"], name)
    return total


# ----------------------------------------------------------------------
# the workloads' timed phases
# ----------------------------------------------------------------------
def run_cells(scale, seed):
    """Every figure workload x figure technique, in-process, each cell
    on a fresh replay memo; no service, no store."""
    from repro.harness import runner
    from repro.techniques import figure_techniques
    from repro.workloads import workload_names

    records = {}
    for wl in workload_names():
        for tech in figure_techniques():
            key = runner.cache_key(wl, tech, scale, None, None, seed)
            records[key] = runner.run_one(
                wl, tech, scale=scale, seed=seed, use_cache=False,
                memo=runner.ReplayMemo())
    return records


def run_all(scale, seed, store_dir, workers):
    """The whole registry through the parallel service (``repro all
    --quick``), rendered."""
    from repro.harness.registry import experiment_names, smoke_options
    from repro.harness.service import ExperimentService

    service = ExperimentService(num_workers=workers, store_dir=str(store_dir))
    run = service.run(options=smoke_options(scale=scale, seed=seed))
    renders = {name: run.render(name) for name in experiment_names()}
    return run, renders


# ----------------------------------------------------------------------
# per-layer report (traced repetitions)
# ----------------------------------------------------------------------
def layer_report(tracer, wall, workers, run, store_dir):
    from layertrace import merge_totals

    workers_totals = tracer.worker_totals()
    t = merge_totals([tracer.totals()] + workers_totals)
    S, P, C, N = t["self_s"], t["probe_s"], t["calls"], t["counts"]
    cells = sorted(t["cell_s"])

    def pct(q):
        if not cells:
            return 0.0
        if len(cells) == 1:
            return cells[0]
        return statistics.quantiles(cells, n=100, method="inclusive")[q - 1]

    def per(num, den, unit=1e6):
        return num / den * unit if den else 0.0

    reports = run.reports if run is not None else []
    shard_s = sum(r.wall_s for r in reports)
    body_s = sum(w["body_s"] for w in workers_totals)
    hits, misses = N["memo.hits"], N["memo.misses"]
    out = {
        "runner.cells": N["runner.cells"],
        "runner.cell_p50_s": pct(50),
        "runner.cell_p90_s": pct(90),
        "workloads.setup_s": S["workloads"],
        "memory.alloc_s": S["memory"],
        "memory.objects_allocated": N["memory.objects_allocated"],
        "executor.capture_s": S["executor"],
        "executor.launches": C["executor"],
        "executor.warps": N["executor.warps"],
        "executor.waves": C["memo"],
        "executor.us_per_warp": per(S["executor"], N["executor.warps"]),
        "sim.warp_instrs": N["sim.warp_instrs"],
        "dispatch.resolve_s": P["dispatch.resolve"],
        "dispatch.resolve_calls": C["dispatch.resolve"],
        "heap.access_s": P["heap.access"],
        "heap.access_calls": C["heap.access"],
        "mmu.translate_s": P["mmu.translate"],
        "mmu.translate_calls": C["mmu.translate"],
        "trace.finalize_s": S["trace"],
        "trace.finalize_calls": C["trace"],
        "trace.accesses": N["trace.accesses"],
        "trace.txns": N["trace.txns"],
        "replay.replay_s": S["replay"],
        "replay.waves": C["replay"],
        "replay.us_per_access": per(S["replay"], N["replay.accesses"]),
        "sim.l1_accesses": N["sim.l1_accesses"],
        "sim.l2_accesses": N["sim.l2_accesses"],
        "sim.dram_accesses": N["sim.dram_accesses"],
        "memo.hits": hits,
        "memo.misses": misses,
        "memo.hit_ratio": per(hits, hits + misses, 1.0),
        "memo.s": S["memo"],
        "store.load_s": S["store.load"],
        "store.merge_s": S["store.merge"],
        "store.bytes": sum(p.stat().st_size for p in Path(store_dir).glob("*.pkl"))
        if store_dir is not None else 0,
        "service.shards": len(reports),
        "service.retries": sum(r.attempts - 1 for r in reports),
        "service.shard_s": shard_s,
        "service.critical_shard_s": max((r.wall_s for r in reports),
                                        default=0.0),
        "service.idle_slot_s": workers * wall - shard_s if reports else 0.0,
        "service.overhead_s": shard_s - body_s if reports else 0.0,
        "registry.render_s": S["registry.render"],
        "traced_wall_s": wall,
        "layers.self_sum_s": sum(S.values()),
    }
    checks = []
    from repro import obs

    spans = obs.snapshot()["spans"]
    program = sum(span_total(spans, n) for n in
                  ("machine.capture", "machine.coalesce", "machine.replay"))
    traced = S["executor"] + S["trace"] + S["replay"] + S["memo"]
    if abs(traced - program) > OBS_TOLERANCE * program:
        checks.append(
            f"traced capture+coalesce+replay {traced:.3f}s disagrees with "
            f"repro.obs spans {program:.3f}s by more than "
            f"{OBS_TOLERANCE:.0%}")
    if out["layers.self_sum_s"] > max(1, workers) * wall:
        checks.append(
            f"layer self times {out['layers.self_sum_s']:.3f}s exceed "
            f"{max(1, workers)} x traced wall {wall:.3f}s")
    return out, checks


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cells", "all-cold", "all-warm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--template", help="store to start all-warm from")
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare, record the ready time and exit")
    args = ap.parse_args(argv)

    # -- per-repetition preparation (part of setup_s) --------------------
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.harness import runner
    import layertrace

    work = Path(args.work)
    store_dir = None
    if args.workload != "cells":
        store_dir = work / "store"
        if args.template:
            shutil.copytree(args.template, store_dir)
        else:
            store_dir.mkdir(parents=True)
    tracer = None
    if args.trace:
        (work / "trace").mkdir(parents=True)
        tracer = layertrace.install(work / "trace")
    workers = 1 if args.workload == "cells" else pool_width()
    t_ready = time.monotonic()
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"t_ready": t_ready}))
        return 0

    # -- timed phase ------------------------------------------------------
    cpu0 = cpu_seconds()
    t_start = time.monotonic()
    t0 = time.perf_counter()
    run = renders = None
    if args.workload == "cells":
        records = run_cells(args.scale, args.seed)
    else:
        run, renders = run_all(args.scale, args.seed, store_dir, workers)
    wall = time.perf_counter() - t0
    t_end = time.monotonic()
    cpu = cpu_seconds() - cpu0

    # -- untimed: summarise and check outputs ------------------------------
    if run is not None:
        records = dict(runner._CACHE)
        gm = run.results["fig6"].summary
        ops = len(run.reports)
        failed = sum(r.outcome != "ok" for r in run.reports)
    else:
        perf = runner.normalized({(k[0], k[1]): r for k, r in records.items()},
                                 "cycles", baseline="sharedoa", invert=True)
        gm = runner.geomean_by_technique(perf)
        ops, failed = len(records), 0
    checks = []
    bad = checksum_failures(records)
    if bad:
        checks.append(f"techniques disagree on the checksum of {sorted(bad)}")
        failed = ops if run is not None else failed + sum(bad.values())
    result = {
        "t_ready": t_ready,
        "timed": [t_start, t_end],
        "wall_s": wall,
        "cpu_s": cpu,
        "workers": workers,
        "peak_rss_mb": peak_rss_mb(),
        "sim_warp_instrs": sum(r.total_warp_instrs for r in records.values()),
        "fig6_err": fig6_err(gm),
        "ops": ops,
        "failed": failed,
        "records_digest": records_digest(records),
        "renders_digest": digest(renders) if renders is not None else None,
        "checks": checks,
    }
    if tracer is not None:
        result["layers"], layer_checks = layer_report(
            tracer, wall, workers, run, store_dir)
        result["checks"] += layer_checks
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

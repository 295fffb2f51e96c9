"""The repository benchmark: host time of the simulator pipeline, end to
end and layer by layer, with the simulator's outputs checked.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 15 --trace 0

Workloads (why each exists: README.md in this directory):

``cells``     every figure workload x technique through
              ``harness.runner.run_one`` in-process; capture, coalesce
              and replay carry the time, no service or store
``all-cold``  the whole registry through ``ExperimentService`` on an
              empty store (``repro all --quick``)
``all-warm``  the same against a store filled by an untimed cold pass

Every repetition runs in a fresh interpreter with a private store under
``.perfbench_work/`` in the checkout (removed on exit), no ``REPRO_*``
environment and the default engine and telemetry.  Repetitions repeat
until ``--seconds`` of them have run (at least :data:`MIN_REPS`); every
metric is the median over them.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer split of the traced ones
plus ``tracing_overhead``.

Host times are paced (see ``gauge.py``): each is divided by how much
slower than on an uncontended reference core a fixed calibration loop
ran on the workload's cores over the same interval.  Raw medians and
the pace are printed beside the metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import HostGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cells", "all-cold", "all-warm")

#: workload size (fraction of each workload's nominal size)
SCALE = 0.02

#: timed repetitions per run, whatever ``--seconds`` says.  An odd
#: count lets the median drop one outlying repetition; an ``all-*``
#: repetition takes ~15 s on 2 cores, so only two of those fit the run
#: budget.
MIN_REPS = {"cells": 3, "all-cold": 2, "all-warm": 2}
MAX_REPS = 40

#: set-up-only interpreter starts per run, pooled with the timed
#: repetitions' set-ups for ``setup_s``
SETUP_PROBES = 3

#: a repetition that runs longer than this is killed and counted failed
REP_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "parallel_eff": "ratio",
    "peak_rss_mb": "MB", "sim_kinstr_per_s": "kinstr/s", "fig6_err": "ratio",
}

PER_LAYER = {
    "runner.cells": "count", "runner.cell_p50_s": "s",
    "runner.cell_p90_s": "s",
    "workloads.setup_s": "s", "memory.alloc_s": "s",
    "memory.objects_allocated": "count",
    "executor.capture_s": "s", "executor.launches": "count",
    "executor.warps": "count", "executor.waves": "count",
    "executor.us_per_warp": "us", "sim.warp_instrs": "count",
    "dispatch.resolve_s": "s", "dispatch.resolve_calls": "count",
    "heap.access_s": "s", "heap.access_calls": "count",
    "mmu.translate_s": "s", "mmu.translate_calls": "count",
    "trace.finalize_s": "s", "trace.finalize_calls": "count",
    "trace.accesses": "count", "trace.txns": "count",
    "replay.replay_s": "s", "replay.waves": "count",
    "replay.us_per_access": "us", "sim.l1_accesses": "count",
    "sim.l2_accesses": "count", "sim.dram_accesses": "count",
    "memo.hits": "count", "memo.misses": "count", "memo.hit_ratio": "ratio",
    "memo.s": "s",
    "store.load_s": "s", "store.merge_s": "s", "store.bytes": "B",
    "service.shards": "count", "service.retries": "count",
    "service.shard_s": "s", "service.critical_shard_s": "s",
    "service.idle_slot_s": "s", "service.overhead_s": "s",
    "registry.render_s": "s",
    "traced_wall_s": "s", "layers.self_sum_s": "s",
    "tracing_overhead": "ratio",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The environment of every repetition: no ``REPRO_*`` override
    (engine, telemetry kill switch, store or result-DB location)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def stop_session(proc) -> None:
    """Kill whatever is left of a repetition's session (its service pool
    workers share it) and wait until all of it has exited."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        if time.monotonic() > deadline:
            raise RuntimeError(f"repetition session {proc.pid} did not exit")
        time.sleep(0.01)
    proc.wait()


class Runner:
    """Spawns repetitions (one fresh interpreter each) under ``work``,
    pinned to ``cpus`` when given."""

    def __init__(self, workload, seed, scale, work: Path, cpus=None):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.work = work
        self.cpus = cpus
        self.n = 0
        self.env = child_env()

    def rep(self, trace=0, workload=None, template=None, setup_only=False):
        """Run one repetition; returns its result dict plus its spawn
        time and ``elapsed_s`` measured here, or ``{"error": ...}``."""
        self.n += 1
        rep_dir = self.work / f"rep{self.n}"
        rep_dir.mkdir()
        out = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload or self.workload,
               "--seed", str(self.seed), "--scale", repr(self.scale),
               "--trace", str(trace), "--work", str(rep_dir),
               "--out", str(out)]
        if template is not None:
            cmd += ["--template", str(template)]
        if setup_only:
            cmd.append("--setup-only")
        cpus = self.cpus
        pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=rep_dir, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT,
                                start_new_session=True, preexec_fn=pin)
        try:
            output, _ = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            output = None
        finally:
            stop_session(proc)
        if output is None:
            return {"error": f"repetition exceeded {REP_TIMEOUT_S}s"}
        elapsed = time.monotonic() - t_spawn
        if proc.returncode != 0 or not out.is_file():
            tail = output.decode(errors="replace").strip().splitlines()[-5:]
            return {"error": f"repetition exited {proc.returncode}: "
                             + " | ".join(tail)}
        result = json.loads(out.read_text())
        result["t_spawn"] = t_spawn
        result["elapsed_s"] = elapsed
        result["dir"] = rep_dir
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def load_expected(path: Path, scale: float, workload: str, seed: int):
    """The committed digests for this scale/workload group/seed, if any."""
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data.get("scale") != scale:
        return None
    group = "cells" if workload == "cells" else "all"
    return data.get(group, {}).get(str(seed))


def bench(args, runner: Runner) -> dict:
    problems = []
    reference = template = None
    if args.workload == "all-warm":
        log("untimed cold pass to fill the store")
        reference = runner.rep(workload="all-cold")
        if "error" in reference:
            return {"problems": [f"cold pass: {reference['error']}"],
                    "reps": [], "setups": []}
        problems += [f"cold pass: {c}" for c in reference["checks"]]
        template = reference["dir"] / "store"

    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.rep(template=template, setup_only=True)
        if "error" in probe:
            problems.append(f"set-up probe: {probe['error']}")
        else:
            setups.append(probe)

    # untraced (U) and traced (T) repetitions, ABBA-ordered when tracing
    pattern = "UTTU" if args.trace else "U"
    reps = []
    measured = 0.0
    while len(reps) < MAX_REPS:
        n = len(reps)
        kinds = [r["kind"] for r in reps]
        enough = n >= MIN_REPS[args.workload] and (
            not args.trace or ("T" in kinds and "U" in kinds))
        est = median([r.get("elapsed_s", 0.0) for r in reps])
        if enough and measured + est > args.seconds:
            break
        kind = pattern[n % len(pattern)]
        r = runner.rep(trace=int(kind == "T"), template=template)
        r["kind"] = kind
        reps.append(r)
        measured += r.get("elapsed_s", 0.0)
        log(f"rep {n + 1} ({kind}): " + (
            r["error"] if "error" in r else f"wall {r['wall_s']:.3f}s"))

    # output checks: every repetition agrees with the first, with the
    # committed digests of this seed, and (all-warm) with the cold pass
    good = [r for r in reps if "error" not in r]
    expected = load_expected(args.expected, args.scale, args.workload,
                             args.seed)
    for r in good:
        setups.append(r)
        bad = list(r["checks"])
        for key in ("records_digest", "renders_digest"):
            if r[key] != good[0][key]:
                bad.append(f"{key} differs between repetitions of one seed")
            if expected is not None and key in expected \
                    and r[key] != expected[key]:
                bad.append(f"{key} differs from the committed expectation "
                           f"for seed {args.seed}")
            if reference is not None and r[key] != reference[key]:
                bad.append(f"{key} of the warm run differs from the cold "
                           "pass")
        if bad:
            r["failed"] = r["ops"]
            problems += bad
    for r in reps:
        if "error" in r:
            problems.append(r["error"])
    return {"problems": problems, "reps": reps, "setups": setups}


def metrics_of(args, outcome, gauge: HostGauge) -> dict:
    good = [r for r in outcome["reps"] if "error" not in r]
    for r in good:
        r["pace"] = gauge.pace(*r["timed"])
        r["wall_paced"] = r["wall_s"] / r["pace"]
    untraced = [r for r in good if r["kind"] == "U"]
    if args.trace:
        traced = [r for r in good if r["kind"] == "T"]
        values = {name: [r["layers"][name] for r in traced]
                  for name in PER_LAYER if name != "tracing_overhead"}
        t_wall = median([r["wall_paced"] for r in traced])
        u_wall = median([r["wall_paced"] for r in untraced])
        values["tracing_overhead"] = [t_wall / u_wall - 1 if u_wall else 0.0]
        units = PER_LAYER
    else:
        values = {
            "wall_s": [r["wall_paced"] for r in untraced],
            "setup_s": [(s["t_ready"] - s["t_spawn"])
                        / gauge.pace(s["t_spawn"], s["t_ready"])
                        for s in outcome["setups"]],
            "cpu_s": [r["cpu_s"] / r["pace"] for r in untraced],
            "parallel_eff": [r["cpu_s"] / (r["workers"] * r["wall_s"])
                             for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "sim_kinstr_per_s": [r["sim_warp_instrs"] / r["wall_paced"] / 1e3
                                 for r in untraced],
            "fig6_err": [r["fig6_err"] for r in untraced],
        }
        units = END_TO_END
    out = {}
    for name, unit in units.items():
        vals = values[name]
        out[name] = {"value": median(vals), "unit": unit}
        print(f"{name:26s} {median(vals):14.6g} {unit:9s} ({spread(vals)})")
    raw = median([r["wall_s"] for r in untraced])
    pace = median([r["pace"] for r in good])
    print(f"{'(raw wall_s)':26s} {raw:14.6g} s         (host pace {pace:.3f})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator pipeline.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=SCALE,
                    help=f"workload size (default {SCALE})")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="committed counter digests to check against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # cells is one process: pin it, and gauge only its core
    cpus = sorted(os.sched_getaffinity(0))
    pinned = {cpus[0]} if args.workload == "cells" else None
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True)
    try:
        with HostGauge(pinned or cpus) as gauge:
            outcome = bench(args, Runner(args.workload, args.seed,
                                         args.scale, work, pinned))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    reps = outcome["reps"]
    for problem in outcome["problems"]:
        log(f"CHECK FAILED: {problem}")
    attempted = sum(r.get("ops", 1) for r in reps) or 1
    failed = sum(r.get("failed", 1) for r in reps)
    if not reps:
        failed = attempted
    correct = not outcome["problems"] and failed == 0
    metrics = metrics_of(args, outcome, gauge) if any(
        "error" not in r for r in reps) else {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

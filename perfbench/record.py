"""Record the benchmark's committed references.

    python3 perfbench/record.py expected
        counter digests of seed 7 (the default) and the held-out seed
        -> perfbench/expected.json
    python3 perfbench/record.py baseline --runs 10 --seconds 15
        ``--runs`` runs of every workload (seeds 1..runs) plus one traced
        run each -> perfbench/baseline.json: median, quartiles and
        spread (q3 - q1) / median of every end-to-end metric, and the
        traced per-layer split

Run from the root of a checkout, like ``run.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench

#: the seed ``ExperimentOptions`` and ``run_one`` default to, and one
#: never used while the benchmark was written
EXPECTED_SEEDS = (7, 2021)


def record_expected(args) -> None:
    work = bench.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    out = {"scale": bench.SCALE, "cells": {}, "all": {}}
    try:
        for seed in EXPECTED_SEEDS:
            for workload, group in (("cells", "cells"), ("all-cold", "all")):
                rep_work = work / f"{workload}-{seed}"
                rep_work.mkdir(parents=True)
                r = bench.Runner(workload, seed, bench.SCALE, rep_work).rep()
                if "error" in r or r["checks"]:
                    sys.exit(f"{workload} seed {seed}: "
                             f"{r.get('error') or r['checks']}")
                out[group][str(seed)] = {
                    k: r[k] for k in ("records_digest", "renders_digest")
                    if r[k] is not None}
                print(f"{workload} seed {seed}: {out[group][str(seed)]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    (bench.HERE / "expected.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE,
                          text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    result["exit"] = proc.returncode
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def record_baseline(args) -> None:
    out = {
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "runs": args.runs, "seconds": args.seconds, "scale": bench.SCALE,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, 0)
                for seed in range(1, args.runs + 1)]
        bad = [r for r in runs if not r["correct"] or r["exit"]]
        if bad:
            sys.exit(f"{workload}: {len(bad)} run(s) failed their checks")
        traced = one_run(workload, 1, args.seconds, 1)
        entry = {
            "run_s": summary([r["run_s"] for r in runs]),
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in runs])
                for name in bench.END_TO_END},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:9s} {name:18s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}")
        print(f"{workload:9s} run_s median {entry['run_s']['median']:.1f}")
    Path(args.output).write_text(json.dumps(out, indent=2) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("expected")
    b = sub.add_parser("baseline")
    b.add_argument("--runs", type=int, default=10)
    b.add_argument("--seconds", type=int, default=15)
    b.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    b.add_argument("--output", default=str(bench.HERE / "baseline.json"))
    args = ap.parse_args()
    (record_expected if args.what == "expected" else record_baseline)(args)


if __name__ == "__main__":
    main()

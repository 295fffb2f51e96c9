"""Sweep driver: fan resolved points through the experiment service.

The driver takes a :class:`~repro.sweep.spec.SweepSpec`, resolves its
points, skips every point the result database already holds with
status ``ok`` (resumability), and fans the rest through
:meth:`~repro.harness.service.ExperimentService.run_points` as
``run_one`` cell points -- the same worker path ``python -m repro all``
uses, so sweep points get the per-shard timeout / retry-once /
serial-fallback contract and per-shard telemetry for free.

Points run in batches of roughly ``2 x num_workers`` shards; each
point is committed to the database the moment its batch lands, so a
kill (SIGTERM, OOM, power) loses at most the in-flight batch and a
rerun recomputes only what never committed.

Per-point failure isolation: a worker exception (bad knob interaction,
workload assertion) must not kill the other 99 points, so the sweep
worker converts exceptions into an ``error`` result recorded with
status ``"error"`` -- except :class:`repro.faults.FaultError`, which is
re-raised so armed failpoints keep exercising the scheduler's
crash/retry paths.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .. import faults
from ..harness.runner import Point, RunRecord, cell_point
from ..harness.service import DEFAULT_TIMEOUT_S, ExperimentService, _service_worker
from ..harness.resultdb import ResultDB
from .spec import SweepPoint, SweepSpec

# fires before a sweep point's result is committed to the DB
faults.declare("sweep.point.record", "raise", "delay")

#: RunRecord scalar fields recorded as sweep metrics (plus wall_s and
#: total_warp_instrs, added by :func:`metrics_from_record`)
_RECORD_METRICS = (
    "cycles", "compute_cycles", "memory_cycles", "thread_instrs",
    "vfunc_calls", "vfunc_pki", "gld_transactions", "gst_transactions",
    "l1_hit_rate", "l2_hit_rate", "dram_accesses", "dram_row_misses",
    "const_accesses", "const_hits", "tlb_walks", "call_serializations",
    "checksum", "num_objects", "num_types", "num_vfuncs",
    "external_fragmentation",
)


def metrics_from_record(record: RunRecord) -> Dict[str, float]:
    """Flatten a RunRecord into the sweep's scalar metric namespace."""
    metrics: Dict[str, float] = {}
    for name in _RECORD_METRICS:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[name] = value
    metrics["total_warp_instrs"] = record.total_warp_instrs
    for cls, count in sorted(record.warp_instrs.items()):
        metrics[f"warp_instrs.{cls}"] = count
    return metrics


def _point_worker(point: Point, store_dir: Optional[str] = None) -> Dict:
    """Cell worker with per-point failure isolation.

    Exceptions become an error result (recorded as one failed point)
    instead of crashing the shard twice and poisoning the sweep;
    FaultError passes through so armed failpoints still exercise the
    scheduler's retry machinery.
    """
    try:
        return _service_worker(point, store_dir)
    except faults.FaultError:
        raise
    except Exception:
        return {"value": None, "memo_hits": 0, "memo_misses": 0,
                "telemetry": None, "error": traceback.format_exc(limit=8)}


@dataclass
class SweepRunReport:
    """What one ``sweep run`` invocation did."""

    sweep: str
    run_id: str
    db_path: str
    total: int
    skipped: int
    computed: int
    failed: int
    wall_s: float
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep, "run_id": self.run_id,
            "db_path": self.db_path, "total": self.total,
            "skipped": self.skipped, "computed": self.computed,
            "failed": self.failed, "wall_s": self.wall_s,
            "outcomes": dict(self.outcomes),
        }

    def render(self) -> str:
        outcomes = ", ".join(f"{k}={v}"
                             for k, v in sorted(self.outcomes.items()))
        return (f"sweep {self.sweep}: {self.total} points -- "
                f"{self.skipped} already done, {self.computed} computed, "
                f"{self.failed} failed ({outcomes or 'nothing ran'}) "
                f"in {self.wall_s:.1f}s -> {self.db_path}")


def run_sweep(
    spec: SweepSpec,
    db: Union[ResultDB, str, Path, None] = None,
    *,
    num_workers: Optional[int] = None,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    store_dir: Optional[str] = None,
    use_store: bool = True,
    batch_size: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> SweepRunReport:
    """Run every not-yet-recorded point of ``spec`` and persist results.

    Resumable by construction: points whose ``point_id`` is already in
    the database with status ``ok`` are skipped, and completed batches
    are committed as the sweep progresses, so rerunning after a crash
    recomputes only unfinished work.
    """
    own_db = not isinstance(db, ResultDB)
    rdb = db if isinstance(db, ResultDB) else ResultDB(db)
    try:
        return _run_sweep(spec, rdb, num_workers=num_workers,
                          timeout_s=timeout_s, store_dir=store_dir,
                          use_store=use_store, batch_size=batch_size,
                          echo=echo)
    finally:
        if own_db:
            rdb.close()


def _run_sweep(spec, rdb, *, num_workers, timeout_s, store_dir,
               use_store, batch_size, echo) -> SweepRunReport:
    t0 = time.perf_counter()
    say = echo or (lambda _msg: None)
    points = spec.resolve_points()
    done = rdb.ok_point_ids({p.point_id for p in points})
    todo = [p for p in points if p.point_id not in done]
    say(f"sweep {spec.name}: {len(points)} points "
        f"({len(done)} already recorded, {len(todo)} to run)")

    report = SweepRunReport(
        sweep=spec.name, run_id="", db_path=str(rdb.path),
        total=len(points), skipped=len(done), computed=0, failed=0,
        wall_s=0.0,
    )
    if not todo:
        report.wall_s = time.perf_counter() - t0
        return report

    report.run_id = rdb.begin_run("sweep", spec.name, spec.to_dict())
    service = ExperimentService(num_workers=num_workers,
                                timeout_s=timeout_s, store_dir=store_dir,
                                use_store=use_store)
    if batch_size is None:
        batch_size = max(1, service.num_workers * 2)

    for start in range(0, len(todo), batch_size):
        batch = todo[start:start + batch_size]
        runs = [cell_point(p.workload, p.technique, p.scale, p.iterations,
                           p.build_config(), p.seed) for p in batch]
        done = service.run_points(runs, worker=_point_worker)
        for point, run in zip(batch, runs):
            faults.failpoint("sweep.point.record")
            _record_point(rdb, report, point, *done[run])
        say(f"  [{min(start + len(batch), len(todo))}/{len(todo)}] "
            f"{report.computed} ok, {report.failed} failed")

    report.wall_s = time.perf_counter() - t0
    return report


def _record_point(rdb: ResultDB, report: SweepRunReport,
                  point: SweepPoint, value: Optional[Dict],
                  shard) -> None:
    error = None
    metrics: Dict[str, float] = {}
    telemetry = None
    if value is None:
        error = shard.error or "shard produced no value"
    elif value.get("error"):
        error = value["error"]
        telemetry = value.get("telemetry")
    else:
        metrics = metrics_from_record(value["value"])
        metrics["wall_s"] = shard.wall_s
        telemetry = value.get("telemetry")
    status = "ok" if error is None else "error"
    rdb.record_point(
        report.run_id, point.point_id,
        sweep=point.sweep, workload=point.workload,
        technique=point.technique, scale=point.scale, seed=point.seed,
        iterations=point.iterations, base_config=point.base_config,
        spec=point.identity(), status=status, outcome=shard.outcome,
        attempts=shard.attempts, wall_s=shard.wall_s, error=error,
        knobs=point.knobs, metrics=metrics, telemetry=telemetry,
        commit=True,
    )
    report.outcomes[shard.outcome] = report.outcomes.get(shard.outcome, 0) + 1
    if status == "ok":
        report.computed += 1
    else:
        report.failed += 1

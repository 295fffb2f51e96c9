"""Parallel experiment service: shard the sweep across worker processes.

The evaluation is a large grid -- 11 workloads x 5+ techniques across
~20 tables and figures -- and every cell is independent, so the
service runs them as *shards* on a small pool of worker processes:

* **cell shards** -- one ``(workload, technique, scale)`` run of the
  shared sweep (``harness.runner.run_one``).  Workers return the
  :class:`~repro.harness.runner.RunRecord`, the parent seeds the
  in-process runner cache with it, and the figure harnesses then
  tabulate against the warm cache exactly as they would after a serial
  sweep -- parallel output is bit-identical by construction.
* **experiment shards** -- experiments that build their own machines
  (Table 1, Figure 10, Figure 12a/b, init) run whole in a worker and
  ship their Result back.

Every shard attaches a :class:`~repro.harness.store.PersistentReplayMemo`
from the disk-backed replay store, so a second invocation of
``python -m repro all`` replays almost nothing, across any number of
processes.

Robustness contract (recorded per shard in the run manifest):

``ok``        first attempt in a worker succeeded
``retried``   the worker failed once (crash or lost pipe); the retry
              succeeded
``timeout``   the shard hit its per-shard timeout (twice); it was
              terminated and recomputed serially in the parent
``fallback``  multiprocessing was unavailable or the worker failed
              twice; the shard ran serially in the parent

The manifest -- shard outcomes, attempts, wall times, memo hit rates --
is written next to ``benchmarks/results/`` by the CLI.
"""
from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults, obs
from ..gpu.config import scaled_config
from ..gpu.machine import set_default_replay_memo
from . import runner
from .registry import (
    ExperimentOptions,
    experiment_names,
    get_experiment,
)
from .runner import cache_get, cache_key, cache_put, run_one
from .store import ReplayMemoStore, default_store_dir, memo_for

#: schema tag of the run manifest
MANIFEST_SCHEMA = "repro-service-manifest/1"

#: default manifest location (next to the benchmark results)
DEFAULT_MANIFEST_PATH = os.path.join(
    "benchmarks", "results", "run_manifest.json"
)

#: default per-shard timeout (generous: a shard is one sweep cell or
#: one self-contained experiment, not the whole suite)
DEFAULT_TIMEOUT_S = 900.0

#: every outcome a shard report may carry
SHARD_OUTCOMES = ("ok", "retried", "timeout", "fallback")

#: every mode a manifest may carry
MANIFEST_MODES = ("serial", "parallel", "fallback")

# Failpoints on the shard scheduler's recovery seams (DESIGN.md §5.5).
# ``kill`` is only offered where it lands in a *worker* process (the
# coordinator downgrades it to a raise).
faults.declare("service.shard.spawn", "raise", "delay")
faults.declare("service.shard.result", "raise", "delay")
faults.declare("service.shard.body", "kill", "raise", "delay")


def validate_manifest(payload) -> None:
    """Schema-check a run manifest; raises ``ValueError`` on violation.

    The manifest counterpart of :func:`repro.obs.validate_payload` and
    :func:`repro.serve.protocol.validate_envelope`: the schema tag and
    mode must be known, every shard entry well-typed with a known
    outcome, and the totals block consistent with the shard list
    (counts, outcome histogram, memo sums).  ``write_manifest`` runs it
    before anything lands on disk, and the serving daemon runs it on
    every manifest a job produces.
    """
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"not a {MANIFEST_SCHEMA} payload: {payload!r:.80}")
    if payload.get("mode") not in MANIFEST_MODES:
        raise ValueError(f"unknown manifest mode {payload.get('mode')!r}")
    num_workers = payload.get("num_workers")
    if not isinstance(num_workers, int) or num_workers < 1:
        raise ValueError(f"num_workers is not a positive int: "
                         f"{num_workers!r}")
    shards = payload.get("shards")
    if not isinstance(shards, list):
        raise ValueError("manifest 'shards' is not a list")
    outcomes: Dict[str, int] = {}
    hits = misses = 0
    for shard in shards:
        if not isinstance(shard, dict):
            raise ValueError(f"shard entry is not an object: {shard!r:.60}")
        name = shard.get("shard")
        if not isinstance(name, str) or not name:
            raise ValueError(f"shard has no name: {shard!r:.60}")
        if shard.get("outcome") not in SHARD_OUTCOMES:
            raise ValueError(f"shard {name}: unknown outcome "
                             f"{shard.get('outcome')!r}")
        if not isinstance(shard.get("attempts"), int) or shard["attempts"] < 1:
            raise ValueError(f"shard {name}: attempts must be >= 1")
        for field_ in ("wall_s", "memo_hits", "memo_misses"):
            value = shard.get(field_)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"shard {name}: {field_} is not a "
                                 f"non-negative number: {value!r}")
        outcomes[shard["outcome"]] = outcomes.get(shard["outcome"], 0) + 1
        hits += shard["memo_hits"]
        misses += shard["memo_misses"]
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        raise ValueError("manifest 'totals' is not an object")
    if totals.get("shards") != len(shards):
        raise ValueError(f"totals.shards ({totals.get('shards')!r}) != "
                         f"len(shards) ({len(shards)})")
    if totals.get("outcomes") != outcomes:
        raise ValueError(f"totals.outcomes {totals.get('outcomes')!r} "
                         f"disagrees with the shard list ({outcomes!r})")
    if totals.get("memo_hits") != hits or totals.get("memo_misses") != misses:
        raise ValueError("totals memo hits/misses disagree with the "
                         "shard list")
    rate = totals.get("memo_hit_rate")
    if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
        raise ValueError(f"memo_hit_rate out of [0, 1]: {rate!r}")


def default_num_workers() -> int:
    """Worker-pool width when the caller does not choose one."""
    return max(1, min(8, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# generic shard scheduler
# ----------------------------------------------------------------------
@dataclass
class ShardReport:
    """One shard's fate, as recorded in the run manifest."""

    shard: str
    kind: str
    outcome: str            # ok | retried | timeout | fallback
    attempts: int
    wall_s: float
    memo_hits: int = 0
    memo_misses: int = 0
    error: Optional[str] = None


def _mp_context():
    """A multiprocessing context, preferring fork (cheap, no re-import)."""
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


def _shard_entry(worker: Callable[[Any], Any], item: Any, conn) -> None:
    """Child-process entry: run one shard, ship ("ok", value) or
    ("err", traceback) back over the pipe."""
    try:
        value = worker(item)
        conn.send(("ok", value))
    except BaseException:
        import traceback

        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    proc: Any
    conn: Any
    deadline: Optional[float]
    attempt: int
    started: float


def run_shards(
    items: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    num_workers: int = 2,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    labels: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    max_attempts: int = 2,
) -> Tuple[List[Any], List[ShardReport]]:
    """Run ``worker(item)`` for every item on a process pool.

    Per-shard timeouts, retry-once on worker failure, and graceful
    degradation to in-process serial execution (when multiprocessing is
    unavailable, or a shard exhausted its worker attempts).  Returns
    (values, reports), both in item order.
    """
    n = len(items)
    labels = list(labels) if labels is not None else [str(i) for i in range(n)]
    kinds = list(kinds) if kinds is not None else ["shard"] * n
    values: List[Any] = [None] * n
    reports: List[Optional[ShardReport]] = [None] * n

    def run_serial(i: int, outcome: str, attempts: int,
                   started: Optional[float] = None,
                   error: Optional[str] = None) -> None:
        t0 = started if started is not None else time.perf_counter()
        values[i] = worker(items[i])
        reports[i] = ShardReport(
            shard=labels[i], kind=kinds[i], outcome=outcome,
            attempts=attempts, wall_s=time.perf_counter() - t0, error=error,
        )

    if num_workers <= 1:
        for i in range(n):
            run_serial(i, "ok", 1)
        return values, [r for r in reports if r is not None]

    try:
        ctx = _mp_context()
        probe_r, probe_w = ctx.Pipe(duplex=False)
        probe_r.close()
        probe_w.close()
    except Exception as exc:
        # no usable multiprocessing: degrade to in-process serial
        err = f"multiprocessing unavailable: {exc!r}"
        for i in range(n):
            run_serial(i, "fallback", 1, error=err)
        return values, [r for r in reports if r is not None]

    pending = deque((i, 1) for i in range(n))
    running: Dict[int, _Running] = {}
    first_start: Dict[int, float] = {}

    def finish(i: int, task: _Running, outcome: str, value: Any,
               error: Optional[str] = None) -> None:
        values[i] = value
        reports[i] = ShardReport(
            shard=labels[i], kind=kinds[i], outcome=outcome,
            attempts=task.attempt, wall_s=time.perf_counter() - first_start[i],
            error=error,
        )

    def fail(i: int, task: _Running, reason: str, detail: str,
             exc: Optional[BaseException] = None) -> None:
        """A worker attempt died: retry once, then run serially.

        Either path recovers the shard, so an injected fault behind the
        failure counts as retried."""
        if exc is not None:
            faults.note_retried(exc)
        if task.attempt < max_attempts:
            pending.append((i, task.attempt + 1))
            return
        outcome = "timeout" if reason == "timeout" else "fallback"
        run_serial(i, outcome, task.attempt + 1,
                   started=first_start[i], error=detail)

    def reap(i: int, task: _Running) -> None:
        task.conn.close()
        task.proc.join(timeout=5.0)
        if task.proc.is_alive():  # pragma: no cover - last resort
            task.proc.kill()
            task.proc.join(timeout=5.0)

    try:
        _schedule_shards(
            pending, running, first_start, num_workers, timeout_s,
            ctx, worker, items, run_serial, finish, fail, reap,
            max_attempts,
        )
    except BaseException:
        # KeyboardInterrupt / SIGTERM-raised SystemExit (or anything
        # else fatal) in the parent: terminate and join every live
        # shard process before re-raising, so an interrupted run can't
        # orphan workers still writing to the replay store.
        for task in running.values():
            try:
                task.proc.terminate()
            except Exception:
                pass
        for i, task in list(running.items()):
            reap(i, task)
        running.clear()
        raise

    return values, [r for r in reports if r is not None]


def _schedule_shards(pending, running, first_start, num_workers, timeout_s,
                     ctx, worker, items, run_serial, finish, fail,
                     reap, max_attempts=2) -> None:
    """The ``run_shards`` scheduling loop (split out so the interrupt
    path of the caller can clean up ``running`` uniformly)."""
    parallel_ok = True
    while pending or running:
        launched = False
        while pending and len(running) < num_workers and parallel_ok:
            i, attempt = pending.popleft()
            first_start.setdefault(i, time.perf_counter())
            try:
                faults.failpoint("service.shard.spawn")
                recv_end, send_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_shard_entry, args=(worker, items[i], send_end),
                    daemon=True,
                )
                proc.start()
            except faults.FaultError as exc:
                # an injected spawn failure is transient: retry the
                # shard, or recompute serially once attempts run out --
                # it must not condemn the whole pool
                faults.note_retried(exc)
                if attempt < max_attempts:
                    pending.append((i, attempt + 1))
                else:
                    run_serial(i, "fallback", attempt + 1,
                               started=first_start[i],
                               error=f"injected spawn fault: {exc!r}")
                continue
            except Exception as exc:
                # cannot start workers any more: drain serially
                parallel_ok = False
                run_serial(i, "fallback", attempt,
                           started=first_start[i],
                           error=f"worker start failed: {exc!r}")
                break
            send_end.close()
            now = time.perf_counter()
            running[i] = _Running(
                proc=proc, conn=recv_end,
                deadline=(now + timeout_s) if timeout_s else None,
                attempt=attempt, started=now,
            )
            launched = True
        if not parallel_ok and pending and not running:
            while pending:
                i, attempt = pending.popleft()
                first_start.setdefault(i, time.perf_counter())
                run_serial(i, "fallback", attempt, started=first_start[i],
                           error="worker pool unavailable")
            break

        progressed = launched
        now = time.perf_counter()
        for i in list(running):
            task = running[i]
            if task.conn.poll(0):
                fault = None
                try:
                    faults.failpoint("service.shard.result")
                    status, payload = task.conn.recv()
                except faults.FaultError as exc:
                    fault = exc
                    status, payload = "err", f"injected result fault: {exc!r}"
                except (EOFError, OSError) as exc:
                    status, payload = "err", f"lost worker pipe: {exc!r}"
                reap(i, task)
                del running[i]
                if status == "ok":
                    finish(i, task,
                           "ok" if task.attempt == 1 else "retried", payload)
                else:
                    fail(i, task, "error", str(payload), exc=fault)
                progressed = True
            elif task.deadline is not None and now > task.deadline:
                task.proc.terminate()
                reap(i, task)
                del running[i]
                fail(i, task, "timeout",
                     f"shard exceeded {timeout_s:.0f}s in a worker")
                progressed = True
            elif not task.proc.is_alive():
                # died without reporting; give the pipe one last chance
                if task.conn.poll(0.05):
                    continue
                exitcode = task.proc.exitcode
                reap(i, task)
                del running[i]
                fail(i, task, "crash",
                     f"worker exited with code {exitcode} before reporting")
                progressed = True
        if not progressed:
            time.sleep(0.005)


# ----------------------------------------------------------------------
# the experiment-level worker (module-level: importable in any start
# method)
# ----------------------------------------------------------------------
def _worker_memo(payload: Dict) -> Optional[Any]:
    store_dir = payload.get("store_dir")
    if not store_dir:
        return None
    cfg = payload.get("config") or scaled_config()
    return memo_for(ReplayMemoStore(store_dir), cfg,
                    scope=payload["scope"])


def _service_worker(payload: Dict) -> Dict:
    """Run one service shard (cell or whole experiment).

    Runs in a worker process normally, but must also be safe to call in
    the parent (serial mode / fallback), so any global it touches is
    restored before returning.  The shard runs under a *fresh* obs
    registry (a forked worker inherits the parent's, a serial call runs
    inside it) and ships its own telemetry delta back in the result;
    the parent merges every shard's dump uniformly.
    """
    reg = obs.Registry()
    prev_reg = obs.set_registry(reg)
    try:
        with reg.span(f"service.shard.{payload['kind']}"):
            # kill/raise here lands in the worker process (forked after
            # arming); the scheduler's crash/err paths recover the shard
            faults.failpoint("service.shard.body")
            memo = _worker_memo(payload)
            if payload["kind"] == "cell":
                record = run_one(
                    payload["workload"], payload["technique"],
                    scale=payload["scale"], iterations=payload["iterations"],
                    config=payload["config"], seed=payload["seed"],
                    use_cache=False, memo=memo,
                )
                value = record
            else:
                exp = get_experiment(payload["name"])
                prev = (set_default_replay_memo(memo)
                        if memo is not None else None)
                try:
                    value = exp.run(payload["options"])
                finally:
                    if memo is not None:
                        set_default_replay_memo(prev)
            hits = memo.hits if memo is not None else 0
            misses = memo.misses if memo is not None else 0
            if memo is not None:
                memo.flush()
    finally:
        obs.set_registry(prev_reg)
    return {"value": value, "memo_hits": hits, "memo_misses": misses,
            "telemetry": reg.to_dict()}


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
@dataclass
class ServiceRun:
    """Everything one service invocation produced."""

    results: Dict[str, Any]
    reports: List[ShardReport]
    manifest: Dict
    wall_s: float

    def render(self, name: str) -> str:
        return get_experiment(name).render(self.results[name])


class ExperimentService:
    """Schedules registry experiments over a worker pool + replay store.

    One instance may be driven from several threads (the serving daemon
    offloads each job to a thread pool): ``run``/``warm_cells``
    serialize on an internal lock, because both the run-scoped telemetry
    registry swap and the in-process runner cache are process-wide.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        store_dir: Optional[str] = None,
        use_store: bool = True,
    ):
        self.num_workers = (default_num_workers() if num_workers is None
                            else num_workers)
        self.timeout_s = timeout_s
        self.store_dir = (store_dir or default_store_dir()) if use_store else None
        self.store = (ReplayMemoStore(self.store_dir)
                      if self.store_dir else None)
        self.last_run: Optional[ServiceRun] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _cell_payload(self, wl: str, tech: str,
                      options: ExperimentOptions) -> Dict:
        return {
            "kind": "cell", "workload": wl, "technique": tech,
            "scale": options.scale, "iterations": None,
            "config": options.config, "seed": options.seed,
            "store_dir": self.store_dir, "scope": f"{wl}-{tech}",
        }

    def _experiment_payload(self, name: str,
                            options: ExperimentOptions) -> Dict:
        return {
            "kind": "experiment", "name": name, "options": options,
            "config": options.config, "store_dir": self.store_dir,
            "scope": f"exp-{name}",
        }

    def _missing_cells(self, experiments,
                       options: ExperimentOptions) -> List[Tuple[str, str]]:
        seen = {}
        for exp in experiments:
            if exp.cells is None:
                continue
            for cell in exp.cells(options):
                seen.setdefault(cell, None)
        return [
            (wl, tech) for (wl, tech) in seen
            if cache_get(cache_key(wl, tech, options.scale, None,
                                   options.config, options.seed)) is None
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        names: Optional[Sequence[str]] = None,
        options: Optional[ExperimentOptions] = None,
        manifest_path: Optional[str] = None,
    ) -> ServiceRun:
        """Run experiments (default: the whole registry) via the pool."""
        options = options or ExperimentOptions()
        names = list(names) if names is not None else list(experiment_names())
        experiments = [get_experiment(n) for n in names]
        with self._lock:
            warm_start = self.store.is_warm() if self.store else False
            t0 = time.perf_counter()

            # run-scoped telemetry: the manifest carries exactly this
            # run's spans and counters, not whatever the process did
            # before
            run_reg = obs.Registry()
            prev_reg = obs.set_registry(run_reg)
            try:
                run = self._run_under_registry(
                    names, experiments, options, warm_start, t0,
                    manifest_path)
            finally:
                obs.set_registry(prev_reg)
                if prev_reg.enabled:
                    prev_reg.merge_dict(run_reg.to_dict())
        return run

    def _run_under_registry(self, names, experiments, options, warm_start,
                            t0, manifest_path) -> ServiceRun:
        with obs.span("service.run"):
            cells = self._missing_cells(experiments, options)
            payloads = [self._cell_payload(wl, tech, options)
                        for wl, tech in cells]
            labels = [f"{wl}x{tech}" for wl, tech in cells]
            kinds = ["cell"] * len(cells)
            self_contained = [e for e in experiments if e.cells is None]
            payloads += [self._experiment_payload(e.name, options)
                         for e in self_contained]
            labels += [e.name for e in self_contained]
            kinds += ["experiment"] * len(self_contained)

            values, reports = run_shards(
                payloads, _service_worker,
                num_workers=self.num_workers, timeout_s=self.timeout_s,
                labels=labels, kinds=kinds,
            )
            self._absorb_shard_telemetry(reports, values)

            for (wl, tech), value in zip(cells, values):
                cache_put(
                    cache_key(wl, tech, options.scale, None,
                              options.config, options.seed),
                    value["value"],
                )
            by_name = {
                e.name: v["value"]
                for e, v in zip(self_contained, values[len(cells):])
            }
            results = {}
            for exp in experiments:
                if exp.cells is None:
                    results[exp.name] = by_name[exp.name]
                else:
                    results[exp.name] = exp.run(options)

        wall = time.perf_counter() - t0
        manifest = self._manifest(names, options, reports, wall, warm_start)
        run = ServiceRun(results=results, reports=reports,
                         manifest=manifest, wall_s=wall)
        self.last_run = run
        if manifest_path:
            self.write_manifest(manifest_path, manifest)
        return run

    def run_point_shards(
        self,
        payloads: Sequence[Dict],
        labels: Sequence[str],
        *,
        worker: Optional[Callable[[Dict], Dict]] = None,
    ) -> Tuple[List[Dict], List[ShardReport]]:
        """Fan arbitrary cell payloads through the pool (sweep entry).

        The sweep driver builds its own payloads (per-point configs,
        scopes, seeds) and cares about per-point isolation rather than
        cache seeding, so this skips ``_missing_cells``/``cache_put``
        and just runs the shards, absorbing telemetry and outcome
        counters into the parent registry exactly like ``run``.
        """
        worker = worker or _service_worker
        with self._lock:
            values, reports = run_shards(
                payloads, worker,
                num_workers=self.num_workers, timeout_s=self.timeout_s,
                labels=list(labels), kinds=["cell"] * len(payloads),
            )
            self._absorb_shard_telemetry(reports, values)
        return values, reports

    def warm_cells(
        self,
        names: Optional[Sequence[str]] = None,
        options: Optional[ExperimentOptions] = None,
    ) -> List[ShardReport]:
        """Precompute the sweep cells the named experiments need and
        seed the in-process runner cache (no figure generation)."""
        options = options or ExperimentOptions()
        names = list(names) if names is not None else list(experiment_names())
        experiments = [get_experiment(n) for n in names]
        with self._lock:
            cells = self._missing_cells(experiments, options)
            payloads = [self._cell_payload(wl, tech, options)
                        for wl, tech in cells]
            values, reports = run_shards(
                payloads, _service_worker,
                num_workers=self.num_workers, timeout_s=self.timeout_s,
                labels=[f"{wl}x{tech}" for wl, tech in cells],
                kinds=["cell"] * len(cells),
            )
            self._absorb_shard_telemetry(reports, values)
            for (wl, tech), value in zip(cells, values):
                cache_put(
                    cache_key(wl, tech, options.scale, None,
                              options.config, options.seed),
                    value["value"],
                )
        return reports

    @staticmethod
    def _absorb_shard_telemetry(reports: List[ShardReport],
                                values: List[Dict]) -> None:
        """Copy memo totals onto the reports and fold every shard's
        telemetry dump -- plus outcome/retry counters -- into the
        parent's process-local registry."""
        reg = obs.registry()
        for report, value in zip(reports, values):
            report.memo_hits = value["memo_hits"]
            report.memo_misses = value["memo_misses"]
            reg.merge_dict(value.get("telemetry"))
            reg.count(f"service.shards_{report.outcome}")
            if report.attempts > 1:
                reg.count("service.shard_retries", report.attempts - 1)

    def install_store_memo(self, config=None) -> Callable[[], None]:
        """Point in-process runs at the persistent store.

        Swaps the runner's process-wide memo (and the machine-level
        default) for a store-backed one; returns a restore callable
        that flushes learned entries and reinstates the previous memos.
        No-op when the service runs storeless.
        """
        if self.store is None:
            return lambda: None
        memo = memo_for(self.store, config or scaled_config(),
                        scope="inprocess")
        prev_runner = runner.set_default_memo(memo)
        prev_machine = set_default_replay_memo(memo)

        def restore() -> None:
            memo.flush()
            runner.set_default_memo(prev_runner)
            set_default_replay_memo(prev_machine)

        return restore

    # ------------------------------------------------------------------
    def _manifest(self, names, options: ExperimentOptions,
                  reports: List[ShardReport], wall_s: float,
                  warm_start: bool) -> Dict:
        outcomes: Dict[str, int] = {}
        hits = misses = 0
        for r in reports:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
            hits += r.memo_hits
            misses += r.memo_misses
        mode = "serial" if self.num_workers <= 1 else "parallel"
        if reports and all(r.outcome == "fallback" for r in reports):
            mode = "fallback"
        cfg = options.config or scaled_config()
        return {
            "schema": MANIFEST_SCHEMA,
            "created_unix": time.time(),
            "mode": mode,
            "num_workers": self.num_workers,
            "timeout_s": self.timeout_s,
            "store": {
                "dir": self.store_dir,
                "enabled": self.store is not None,
                "warm_start": warm_start,
            },
            "options": {
                "scale": options.scale,
                "seed": options.seed,
                "config": cfg.name,
                "workloads": (list(options.workloads)
                              if options.workloads else None),
            },
            "experiments": list(names),
            "telemetry": obs.snapshot(),
            "shards": [asdict(r) for r in reports],
            "totals": {
                "shards": len(reports),
                "outcomes": outcomes,
                "wall_s": wall_s,
                "memo_hits": hits,
                "memo_misses": misses,
                "memo_hit_rate": hits / (hits + misses)
                if (hits + misses) else 0.0,
            },
        }

    @staticmethod
    def write_manifest(path, manifest: Dict) -> None:
        from .export import write_json_atomic

        validate_manifest(manifest)
        write_json_atomic(manifest, path)

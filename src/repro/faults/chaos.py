"""Chaos soak harness: seeded fault schedules against the full stack.

``python -m repro chaos --seeds N`` runs N seeded scenarios.  Each
scenario boots a real :class:`~repro.serve.server.ReproServer` (Unix
socket, worker pool, persistent replay store -- all in a fresh temp
directory), arms the seed's :class:`~repro.faults.FaultSchedule`, and
drives experiment submissions through the blocking client while faults
fire in the event loop, the scheduler, the worker shards and the store.

Invariants asserted per seed (any violation fails the run):

* **determinism** -- regenerating the schedule from its seed yields the
  same schedule, and two dry-run replays produce identical fired
  sequences;
* **correctness** -- every submission eventually succeeds and its
  rendered result is bit-identical to the fault-free baseline run;
* **store integrity** -- after the run the store's SQLite file passes
  ``PRAGMA integrity_check`` and every bucket loads without tripping
  the corruption counters;
* **clean drain** -- the daemon exits 0 after a drain, even when the
  drain itself was faulted;
* **accounting** -- every *erroring* fault that actually fired
  (ground truth: its consumed once-token) shows recovery evidence:
  a ``faults.retried.*`` / ``faults.surfaced.*`` counter, a shard
  retry/fallback, or a client-visible retry.

The scenario layer is importable (``run_chaos``) so the test suite can
soak a couple of seeds under the ``slow`` marker while CI runs more.

``python -m repro chaos --cluster`` runs the same soak against a
consistent-hash cluster (:mod:`repro.serve.cluster`): router-side
frame faults plus a deterministic SIGKILL of one worker mid-scenario,
asserting failover keeps every result bit-identical to the *serial*
fault-free baseline and the shared store intact.
"""
from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from . import core
from .core import ERRORING_ACTIONS
from .schedule import FaultSchedule

#: experiments each scenario submits (init is the cheapest registry
#: entry that still exercises machine + store + service + serve)
DEFAULT_EXPERIMENTS = ("init",)

#: client-side resubmit budget per request (faults are once-only, so
#: one retry usually suffices; the budget covers stacked schedules)
CLIENT_ATTEMPTS = 6


@dataclass
class SeedResult:
    """Everything one chaos scenario observed."""

    seed: int
    schedule: str
    consumed: List[Tuple[str, str]] = field(default_factory=list)
    client_retries: int = 0
    failed_replies: int = 0
    violations: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Aggregate of one ``repro chaos`` invocation."""

    seeds: List[SeedResult]
    baseline_experiments: Tuple[str, ...]
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.seeds)

    @property
    def total_violations(self) -> int:
        return sum(len(s.violations) for s in self.seeds)


def format_report(report: ChaosReport) -> str:
    lines = [
        f"chaos soak: {len(report.seeds)} seeds over "
        f"{', '.join(report.baseline_experiments)} "
        f"({report.wall_s:.1f}s)",
        f"{'seed':>6s}  {'faults fired':32s} {'retries':>7s} "
        f"{'verdict':8s}  schedule",
    ]
    for s in report.seeds:
        fired = ",".join(f"{n}:{a}" for n, a in s.consumed) or "-"
        lines.append(
            f"{s.seed:6d}  {fired:32.32s} {s.client_retries:7d} "
            f"{'ok' if s.ok else 'FAIL':8s}  {s.schedule}"
        )
        for v in s.violations:
            lines.append(f"        !! {v}")
    lines.append(
        f"verdict: {'PASS' if report.ok else 'FAIL'} "
        f"({report.total_violations} invariant violations)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# one scenario
# ----------------------------------------------------------------------
def _start_server(tmp: Path):
    """Boot an in-process daemon on a Unix socket; returns
    (server, thread, rc_box, client)."""
    from ..serve.client import ServeClient
    from ..serve.server import ReproServer

    sock = str(tmp / "serve.sock")
    server = ReproServer(
        socket_path=sock,
        workers=2,
        store_dir=str(tmp / "store"),
        drain_grace_s=60.0,
        shard_timeout_s=300.0,
    )
    rc: Dict[str, Optional[int]] = {"value": None}
    thread = threading.Thread(target=lambda: rc.update(value=server.run()),
                              name="chaos-serve", daemon=True)
    thread.start()
    if not server.ready.wait(30.0):
        raise RuntimeError("chaos daemon failed to start")
    client = ServeClient(socket_path=sock, timeout=300.0)
    client.wait_until_ready(10.0)
    return server, thread, rc, client


def _submit_with_retry(client, result: SeedResult, experiment: str,
                       scale: float) -> Optional[Dict]:
    """Submit one experiment, resubmitting on transport faults and
    retryable error replies; None when the budget is exhausted."""
    from ..serve.client import ServeError

    for attempt in range(1, CLIENT_ATTEMPTS + 1):
        try:
            reply = client.submit(experiment, scale=scale, quick=True,
                                  wait_s=5.0)
        except ServeError:
            reply = None
        if reply is not None and reply.get("ok"):
            return reply
        if reply is not None:
            result.failed_replies += 1
        if attempt == CLIENT_ATTEMPTS:
            return None
        result.client_retries += 1
        time.sleep(0.05)
    return None


def _check_store(tmp: Path, result: SeedResult) -> None:
    """Post-run store integrity: SQLite's own check passes, and every
    row of every bucket decodes at the current version."""
    import sqlite3
    from contextlib import closing

    from ..harness.resultdb import connect
    from ..harness.store import ReplayMemoStore

    store = ReplayMemoStore(tmp / "store")
    if not store.path.exists():
        return
    probe = obs.Registry()
    prev = obs.set_registry(probe)
    try:
        with closing(connect(store.path)) as conn:
            status = conn.execute("PRAGMA integrity_check").fetchone()[0]
        if status != "ok":
            result.violations.append(f"store integrity_check: {status}")
        for bucket in store.buckets():
            store.load_bucket(bucket)
    except sqlite3.Error as exc:
        result.violations.append(f"store unreadable after run ({exc!r})")
    finally:
        obs.set_registry(prev)
    for counter in ("store.bucket_corrupt", "store.bucket_version_mismatch"):
        if probe.counters.get(counter):
            result.violations.append(
                f"store corrupted after run ({counter} = "
                f"{probe.counters[counter]})")


def _check_accounting(result: SeedResult, counters: Dict[str, int]) -> None:
    """Every erroring fault that fired must have been retried or
    surfaced somewhere the stack can prove."""
    shard_evidence = any(counters.get(k) for k in (
        "service.shard_retries", "service.shards_retried",
        "service.shards_fallback", "service.shards_timeout",
    ))
    client_evidence = result.client_retries > 0 or result.failed_replies > 0
    for name, action in result.consumed:
        if action not in ERRORING_ACTIONS:
            continue
        if counters.get(f"faults.retried.{name}") \
                or counters.get(f"faults.surfaced.{name}"):
            continue
        if name.startswith("service.") and shard_evidence:
            continue
        if name.startswith("serve.") and client_evidence:
            continue
        result.violations.append(
            f"injected fault {name}:{action} fired but was neither "
            f"retried nor surfaced")


def run_scenario(seed: Optional[int],
                 experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
                 scale: float = 0.05,
                 baseline: Optional[Dict[str, str]] = None,
                 ) -> Tuple[SeedResult, Dict[str, str]]:
    """One full chaos scenario; ``seed=None`` runs fault-free (the
    baseline pass).  Returns (result, rendered-by-experiment)."""
    t0 = time.perf_counter()
    schedule = FaultSchedule.generate(seed) if seed is not None else None
    result = SeedResult(
        seed=seed if seed is not None else -1,
        schedule=schedule.describe() if schedule else "fault-free",
    )
    rendered: Dict[str, str] = {}

    if schedule is not None:
        if FaultSchedule.generate(seed) != schedule:
            result.violations.append("schedule generation is not "
                                     "deterministic for this seed")
        if schedule.dry_run() != schedule.dry_run():
            result.violations.append("dry-run replay diverged between "
                                     "two runs of the same schedule")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        tmp = Path(tmpdir)
        reg = obs.Registry()
        prev_reg = obs.set_registry(reg)
        armed = None
        try:
            server, thread, rc, client = _start_server(tmp)
            try:
                if schedule is not None:
                    armed = core.arm(schedule,
                                     scratch_dir=str(tmp / "scratch"))
                for name in experiments:
                    reply = _submit_with_retry(client, result, name, scale)
                    if reply is None:
                        result.violations.append(
                            f"submit of {name!r} never succeeded "
                            f"({CLIENT_ATTEMPTS} attempts)")
                        continue
                    rendered[name] = reply.get("rendered", "")
                    warm = _submit_with_retry(client, result, name, scale)
                    if warm is None:
                        result.violations.append(
                            f"warm resubmit of {name!r} never succeeded")
                    elif warm.get("rendered", "") != rendered[name]:
                        result.violations.append(
                            f"warm resubmit of {name!r} returned a "
                            f"different result")
            finally:
                # drain through the faulted protocol path first; fall
                # back to the thread-safe trigger if that cannot land
                try:
                    _submit_drain(client, result)
                except Exception:
                    pass
                server.request_shutdown("chaos cleanup")
                thread.join(90.0)
                if thread.is_alive():
                    result.violations.append("daemon failed to drain "
                                             "within 90s")
                elif rc["value"] != 0:
                    result.violations.append(
                        f"daemon exited {rc['value']} instead of 0")
                if armed is not None:
                    result.consumed = armed.consumed()
                    core.disarm()
                    armed = None
        finally:
            if armed is not None:
                core.disarm()
            obs.set_registry(prev_reg)
        _check_store(tmp, result)

    if schedule is not None:
        _check_accounting(result, reg.counters)
    if baseline is not None:
        for name in experiments:
            if name in rendered and rendered[name] != baseline.get(name):
                result.violations.append(
                    f"result of {name!r} differs from the fault-free "
                    f"baseline")
    result.wall_s = time.perf_counter() - t0
    return result, rendered


def _submit_drain(client, result: SeedResult) -> None:
    from ..serve.client import ServeError

    for attempt in range(3):
        try:
            client.drain(wait_s=2.0)
            return
        except ServeError:
            result.client_retries += 1
            time.sleep(0.05)


# ----------------------------------------------------------------------
# cluster scenarios
# ----------------------------------------------------------------------
def _start_cluster(tmp: Path, num_workers: int):
    """Boot an in-process cluster router over ``num_workers`` real
    subprocess daemons sharing one store; returns
    (router, thread, rc_box, client)."""
    from ..serve.client import ServeClient
    from ..serve.cluster import ClusterRouter, WorkerConfig

    sock = str(tmp / "router.sock")
    router = ClusterRouter(
        num_workers=num_workers,
        socket_path=sock,
        worker_dir=str(tmp / "workers"),
        drain_grace_s=60.0,
        worker_config=WorkerConfig(
            service_workers=2,
            shard_timeout_s=300.0,
            store_dir=str(tmp / "store"),
            drain_grace_s=60.0,
        ),
    )
    rc: Dict[str, Optional[int]] = {"value": None}
    thread = threading.Thread(target=lambda: rc.update(value=router.run()),
                              name="chaos-cluster", daemon=True)
    thread.start()
    if not router.ready.wait(120.0):
        raise RuntimeError("chaos cluster failed to start")
    client = ServeClient(socket_path=sock, timeout=300.0)
    client.wait_until_ready(10.0)
    return router, thread, rc, client


def run_cluster_scenario(seed: int,
                         experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
                         scale: float = 0.05,
                         baseline: Optional[Dict[str, str]] = None,
                         num_workers: int = 2,
                         ) -> Tuple[SeedResult, Dict[str, str]]:
    """One cluster chaos scenario: seeded faults fire in the *router*
    (frame disconnects/delays, drain), and one worker is SIGKILLed
    between the cold and warm submit passes.  The invariants are the
    single-daemon ones plus failover: every submission still succeeds,
    results stay bit-identical to the serial fault-free baseline, the
    shared store stays intact, and the cluster still drains cleanly
    (exit 0) after losing and restarting a worker."""
    t0 = time.perf_counter()
    schedule = FaultSchedule.generate(seed)
    result = SeedResult(
        seed=seed,
        schedule=f"cluster[{num_workers}w] " + schedule.describe(),
    )
    rendered: Dict[str, str] = {}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        tmp = Path(tmpdir)
        reg = obs.Registry()
        prev_reg = obs.set_registry(reg)
        armed = None
        try:
            router, thread, rc, client = _start_cluster(tmp, num_workers)
            try:
                armed = core.arm(schedule,
                                 scratch_dir=str(tmp / "scratch"))
                for name in experiments:
                    reply = _submit_with_retry(client, result, name, scale)
                    if reply is None:
                        result.violations.append(
                            f"submit of {name!r} never succeeded "
                            f"({CLIENT_ATTEMPTS} attempts)")
                        continue
                    rendered[name] = reply.get("rendered", "")
                # deterministic mid-run worker kill: the supervisor must
                # evict + restart it and the warm pass must still answer
                killed = router.kill_worker(index=seed % num_workers)
                if killed is None:
                    result.violations.append("no live worker to kill")
                else:
                    # failover invariant: the supervisor restarts the
                    # kill and the full ring recovers
                    deadline = time.monotonic() + 60.0
                    while ((router.worker_restarts < 1
                            or len(router.ring) < num_workers)
                           and time.monotonic() < deadline):
                        time.sleep(0.1)
                    if router.worker_restarts < 1:
                        result.violations.append(
                            f"killed worker {killed} was not restarted "
                            f"within 60s")
                    elif len(router.ring) < num_workers:
                        result.violations.append(
                            f"ring did not recover to {num_workers} "
                            f"workers within 60s")
                for name in experiments:
                    warm = _submit_with_retry(client, result, name, scale)
                    if warm is None:
                        result.violations.append(
                            f"post-kill resubmit of {name!r} never "
                            f"succeeded")
                    elif name in rendered \
                            and warm.get("rendered", "") != rendered[name]:
                        result.violations.append(
                            f"post-kill resubmit of {name!r} returned a "
                            f"different result")
            finally:
                try:
                    _submit_drain(client, result)
                except Exception:
                    pass
                router.request_shutdown("chaos cleanup")
                thread.join(120.0)
                if thread.is_alive():
                    result.violations.append("cluster failed to drain "
                                             "within 120s")
                elif rc["value"] != 0:
                    result.violations.append(
                        f"cluster exited {rc['value']} instead of 0")
                if armed is not None:
                    result.consumed = armed.consumed()
                    core.disarm()
                    armed = None
        finally:
            if armed is not None:
                core.disarm()
            obs.set_registry(prev_reg)
        _check_store(tmp, result)

    _check_accounting(result, reg.counters)
    if baseline is not None:
        for name in experiments:
            if name in rendered and rendered[name] != baseline.get(name):
                result.violations.append(
                    f"cluster result of {name!r} differs from the "
                    f"serial fault-free baseline")
    result.wall_s = time.perf_counter() - t0
    return result, rendered


def run_cluster_chaos(num_seeds: int = 3, start_seed: int = 0,
                      experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
                      scale: float = 0.05, verbose: bool = True,
                      num_workers: int = 2) -> ChaosReport:
    """Serial fault-free baseline, then ``num_seeds`` cluster scenarios
    (router faults + a worker kill each)."""
    t0 = time.perf_counter()
    experiments = tuple(experiments)

    base_result, baseline = run_scenario(None, experiments, scale)
    if not base_result.ok or set(baseline) != set(experiments):
        missing = [f"baseline run failed: {v}"
                   for v in base_result.violations] or \
                  ["baseline run produced no results"]
        base_result.violations[:] = missing
        return ChaosReport(seeds=[base_result],
                           baseline_experiments=experiments,
                           wall_s=time.perf_counter() - t0)

    seeds: List[SeedResult] = []
    for seed in range(start_seed, start_seed + num_seeds):
        result, _ = run_cluster_scenario(seed, experiments, scale,
                                         baseline=baseline,
                                         num_workers=num_workers)
        seeds.append(result)
        if verbose:
            state = "ok" if result.ok else "FAIL"
            fired = ",".join(f"{n}:{a}" for n, a in result.consumed) or "-"
            print(f"[chaos] cluster seed {seed}: {state} "
                  f"({result.wall_s:.1f}s, fired {fired})", flush=True)
    return ChaosReport(seeds=seeds, baseline_experiments=experiments,
                       wall_s=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# the soak loop
# ----------------------------------------------------------------------
def run_chaos(num_seeds: int = 5, start_seed: int = 0,
              experiments: Sequence[str] = DEFAULT_EXPERIMENTS,
              scale: float = 0.05, verbose: bool = True) -> ChaosReport:
    """Run the baseline plus ``num_seeds`` seeded scenarios."""
    t0 = time.perf_counter()
    experiments = tuple(experiments)

    base_result, baseline = run_scenario(None, experiments, scale)
    if not base_result.ok or set(baseline) != set(experiments):
        missing = [f"baseline run failed: {v}"
                   for v in base_result.violations] or \
                  ["baseline run produced no results"]
        base_result.violations[:] = missing
        return ChaosReport(seeds=[base_result],
                           baseline_experiments=experiments,
                           wall_s=time.perf_counter() - t0)

    seeds: List[SeedResult] = []
    for seed in range(start_seed, start_seed + num_seeds):
        result, _ = run_scenario(seed, experiments, scale, baseline=baseline)
        seeds.append(result)
        if verbose:
            state = "ok" if result.ok else "FAIL"
            fired = ",".join(f"{n}:{a}" for n, a in result.consumed) or "-"
            print(f"[chaos] seed {seed}: {state} "
                  f"({result.wall_s:.1f}s, fired {fired})", flush=True)
    return ChaosReport(seeds=seeds, baseline_experiments=experiments,
                       wall_s=time.perf_counter() - t0)

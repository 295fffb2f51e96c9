"""The ``repro serve`` daemon: an asyncio experiment-serving loop.

One process owns one :class:`~repro.harness.service.ExperimentService`
(worker pool + persistent replay store) and serves it over the
``repro-serve/1`` protocol on a TCP port or Unix socket.  The event
loop only ever does admission, bookkeeping and IO; computations are
offloaded to a small thread pool that calls into the service (which in
turn shards onto worker *processes*), so ``health``/``stats``/``status``
answer instantly while jobs run.

Lifecycle: SIGTERM/SIGINT (or the ``drain`` verb) switch the daemon to
*draining* -- new submissions are refused with an explicit error, jobs
already admitted run to completion under a grace deadline, the replay
store is flushed, and the process exits 0 on a clean drain (1 when the
deadline expired with jobs still running).

Telemetry: the daemon counts into the process-local :mod:`repro.obs`
registry (``serve.*`` counters, per-experiment ``serve.job.<name>``
latency spans) alongside whatever the machine/service/store layers
record, and the ``stats`` verb returns the live ``repro-obs/1``
snapshot; the authoritative queue/cache counters additionally live on
the admission controller, so ``status`` stays exact even mid-run while
the service swaps run-scoped registries.
"""
from __future__ import annotations

import asyncio
import difflib
import os
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

from .. import faults, obs
from ..harness.registry import (
    SMOKE_PARAMS,
    ExperimentOptions,
    experiment_names,
    get_experiment,
)
from ..harness.runner import DEFAULT_SCALE
from . import protocol
from .jobs import DEFAULT_QUEUE_LIMIT, Admission, Job, job_key

#: default grace period for in-flight jobs once a drain begins
DEFAULT_DRAIN_GRACE_S = 60.0

#: default width of the job-offload thread pool (each thread drives one
#: service run, which itself shards onto worker processes)
DEFAULT_JOB_THREADS = 2

# Failpoints on the daemon's recovery seams (DESIGN.md §5.5); frame I/O
# failpoints live in :mod:`repro.serve.protocol`.  ``serve.drain`` is
# delay-only: a drain must finish, just possibly late.
faults.declare("serve.admit", "raise", "delay")
faults.declare("serve.drain", "delay")


def _submit_field_problem(scale: Any, seed: Any,
                          quick: Any) -> Optional[str]:
    """Why a submit's ``scale``/``seed``/``quick`` are unusable, or None.

    JSON booleans are Python ``bool``s, which are also ``int``s, so each
    numeric check excludes them explicitly.  ``scale`` must be finite
    and float-representable: NaN fails every comparison.
    """
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not 0 < scale <= sys.float_info.max):
        return f"scale must be a finite number > 0, got {scale!r:.40}"
    if isinstance(seed, bool) or not isinstance(seed, int):
        return f"seed must be an integer, got {seed!r:.40}"
    if not isinstance(quick, bool):
        return f"quick must be a boolean, got {quick!r:.40}"
    return None


class ReproServer:
    """The serving daemon (one instance per process).

    ``compute`` is injectable for tests: it receives one submit spec
    dict and returns the result payload dict.  The default dispatches
    into :class:`~repro.harness.service.ExperimentService`.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        socket_path: Optional[str] = None,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache_size: int = 64,
        job_threads: int = DEFAULT_JOB_THREADS,
        drain_grace_s: float = DEFAULT_DRAIN_GRACE_S,
        shard_timeout_s: Optional[float] = None,
        store_dir: Optional[str] = None,
        use_store: bool = True,
        compute: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ):
        from ..harness.service import DEFAULT_TIMEOUT_S, ExperimentService

        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.drain_grace_s = drain_grace_s
        self.service = ExperimentService(
            workers,
            timeout_s=(DEFAULT_TIMEOUT_S if shard_timeout_s is None
                       else shard_timeout_s),
            store_dir=store_dir,
            use_store=use_store,
        )
        self.admission = Admission(queue_limit=queue_limit,
                                   cache_size=cache_size,
                                   job_threads=job_threads)
        self._own_compute = compute is None
        self._compute = self._service_compute if compute is None else compute
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, job_threads),
            thread_name_prefix="repro-serve-job",
        )
        #: set once the daemon is listening (safe to connect)
        self.ready = threading.Event()
        self.draining = False
        self.drain_reason: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._restore_memo: Optional[Callable[[], None]] = None
        self._exit_code = 0
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until drained; returns the process exit code."""
        return asyncio.run(self._amain())

    def endpoint_desc(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def _amain(self) -> int:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._done = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self.begin_drain, signal.Signals(sig).name)
            except (NotImplementedError, RuntimeError, ValueError):
                # non-main thread (tests) or unsupported platform: the
                # drain verb / request_shutdown() still work
                break
        if self.socket_path:
            server = await asyncio.start_unix_server(
                self._on_connect, path=self.socket_path)
        else:
            server = await asyncio.start_server(
                self._on_connect, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
        if self._own_compute:
            # store handoff: in-process (serial-fallback) runs persist
            # into the service's replay store; restoring at drain time
            # flushes anything they learned
            self._restore_memo = self.service.install_store_memo()
        self.ready.set()
        print(f"[serve] listening on {self.endpoint_desc()} "
              f"(pid {os.getpid()}, workers {self.service.num_workers}, "
              f"queue limit {self.admission.queue_limit})", flush=True)
        try:
            await self._done.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self._conn_tasks:
                # let handlers finish writing replies for drained jobs
                await asyncio.wait(self._conn_tasks, timeout=10.0)
            if self._restore_memo is not None:
                self._restore_memo()
                self._restore_memo = None
            self._executor.shutdown(wait=False)
            if self.socket_path:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
        print(f"[serve] drained ({self.drain_reason}): "
              f"{self.admission.completed} completed, "
              f"{self.admission.failed} failed, exit {self._exit_code}",
              flush=True)
        return self._exit_code

    def begin_drain(self, reason: str = "drain") -> None:
        """Stop admitting, finish in-flight jobs, flush, exit.

        Called from the event loop (signal handler or ``drain`` verb);
        idempotent.
        """
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        obs.count("serve.drains")
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        faults.failpoint("serve.drain")
        pending = [job.future for job in self.admission.jobs.values()]
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.drain_grace_s)
            if not_done:
                obs.count("serve.drain_abandoned_jobs", len(not_done))
                self._exit_code = 1
        assert self._done is not None
        self._done.set()

    def request_shutdown(self, reason: str = "shutdown") -> None:
        """Thread-safe drain trigger (the in-process test harness)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.begin_drain, reason)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connect(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    msg = await protocol.read_frame(reader)
                except protocol.ProtocolError as exc:
                    await protocol.write_frame(writer, protocol.error_reply(
                        "error", "bad_request", detail=str(exc)))
                    break
                if msg is None:
                    break
                reply = await self._dispatch(msg)
                protocol.validate_envelope(reply)
                await protocol.write_frame(writer, reply)
        except (ConnectionResetError, BrokenPipeError, TimeoutError) as exc:
            # injected disconnects land here too; the client retries
            faults.note_surfaced(exc)
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        if msg.get("schema") != protocol.SCHEMA:
            return protocol.error_reply(
                "error", "bad_request",
                detail=f"expected schema {protocol.SCHEMA}")
        verb = msg.get("verb")
        handler = {
            "submit": self._submit,
            "status": self._status,
            "health": self._health,
            "stats": self._stats,
            "drain": self._drain_verb,
            "experiments": self._experiments,
        }.get(verb)
        if handler is None:
            return protocol.error_reply(
                "error", "unknown_verb", detail=f"unknown verb {verb!r}")
        try:
            return await handler(msg)
        except Exception as exc:
            obs.count("serve.internal_errors")
            faults.note_surfaced(exc)
            return protocol.error_reply(verb, "internal_error",
                                        detail=traceback.format_exc())

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        obs.count("serve.submits")
        name = msg.get("experiment")
        names = experiment_names()
        if not isinstance(name, str) or name not in names:
            hints = difflib.get_close_matches(str(name), names, n=3)
            return protocol.error_reply(
                "submit", "unknown_experiment",
                detail=f"unknown experiment {name!r}", hint=hints)
        if self.draining:
            return protocol.error_reply(
                "submit", "draining",
                detail="daemon is draining; not admitting new jobs")
        # a raise here surfaces as an internal_error reply (and is
        # counted surfaced by _dispatch); the submitter may retry
        faults.failpoint("serve.admit")
        params = msg.get("params") or {}
        if not isinstance(params, dict):
            return protocol.error_reply(
                "submit", "bad_request",
                detail=f"params must be an object, got {params!r:.40}")
        scale = msg.get("scale", DEFAULT_SCALE)
        seed = msg.get("seed", 7)
        quick = msg.get("quick", False)
        problem = _submit_field_problem(scale, seed, quick)
        if problem is not None:
            return protocol.error_reply("submit", "bad_request",
                                        detail=problem)
        spec = {
            "experiment": name,
            "scale": float(scale),
            "seed": seed,
            "quick": quick,
            "params": params,
        }
        key = job_key(spec)
        decision = self.admission.decide(key, spec)
        if decision.kind == "cached":
            obs.count("serve.cache_hits")
            assert decision.result is not None
            return protocol.response("submit", outcome="cached", key=key,
                                     **decision.result)
        if decision.kind == "rejected":
            obs.count("serve.rejected_queue_full")
            return protocol.error_reply(
                "submit", "queue_full",
                retry_after=decision.retry_after,
                queued=len(self.admission.jobs),
                queue_limit=self.admission.queue_limit,
                detail="job queue is full; retry after the given delay")
        assert decision.job is not None
        job = decision.job
        if decision.kind == "admitted":
            obs.count("serve.jobs_admitted")
            self._start_job(job)
        else:
            obs.count("serve.dedup_joined")
        ok, payload = await job.future
        if not ok:
            return protocol.error_reply("submit", "job_failed",
                                        detail=payload, key=key)
        outcome = "computed" if decision.kind == "admitted" else "dedup"
        return protocol.response("submit", outcome=outcome, key=key,
                                 **payload)

    async def _status(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        adm = self.admission
        return protocol.response(
            "status",
            draining=self.draining,
            uptime_s=round(time.monotonic() - self._t0, 3),
            pid=os.getpid(),
            endpoint=self.endpoint_desc(),
            inflight=len(adm.jobs),
            queue_limit=adm.queue_limit,
            job_threads=adm.job_threads,
            service_workers=self.service.num_workers,
            store_dir=self.service.store_dir,
            cache=adm.cache.stats(),
            **adm.counters(),
        )

    async def _health(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.response(
            "health",
            status="draining" if self.draining else "ok",
            inflight=len(self.admission.jobs),
        )

    async def _stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        adm = self.admission
        return protocol.response(
            "stats",
            telemetry=obs.snapshot(),
            latency=adm.latency_stats(),
            cache=adm.cache.stats(),
            counters=adm.counters(),
            inflight=len(adm.jobs),
        )

    async def _drain_verb(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        inflight = len(self.admission.jobs)
        self.begin_drain("drain verb")
        return protocol.response("drain", draining=True, inflight=inflight)

    async def _experiments(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.response(
            "experiments",
            experiments={name: get_experiment(name).description
                         for name in experiment_names()},
        )

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _start_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()

        def work():
            try:
                return True, self._compute(job.spec)
            except Exception as exc:
                # the failure reaches every waiter as a job_failed
                # reply; injected faults behind it count as surfaced
                faults.note_surfaced(exc)
                return False, traceback.format_exc()

        fut = loop.run_in_executor(self._executor, work)

        def finish(f) -> None:
            wall = time.perf_counter() - t0
            ok, payload = f.result()
            if ok:
                payload = dict(payload)
                payload.setdefault("wall_s", round(wall, 4))
                payload["waiters"] = job.waiters
                self.admission.complete(job, payload, wall)
                obs.count("serve.jobs_completed")
                # root-level: this callback runs on an executor thread,
                # concurrent with whatever span another job has open
                obs.add_root_time("serve.job", wall)
                obs.add_root_time(f"serve.job.{job.spec['experiment']}",
                                  wall)
            else:
                self.admission.fail(job)
                obs.count("serve.jobs_failed")
            job.future.set_result((ok, payload))

        fut.add_done_callback(finish)

    def _service_compute(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Default compute: one experiment through the service pool."""
        from ..harness.service import validate_manifest

        name = spec["experiment"]
        params: Dict[str, Dict[str, Any]] = (
            {k: dict(v) for k, v in SMOKE_PARAMS.items()}
            if spec.get("quick") else {}
        )
        if spec.get("params"):
            merged = params.setdefault(name, {})
            merged.update(spec["params"])
        options = ExperimentOptions(scale=spec["scale"], seed=spec["seed"],
                                    params=params)
        run = self.service.run([name], options, manifest_path=None)
        validate_manifest(run.manifest)
        return {
            "rendered": run.render(name),
            "wall_s": round(run.wall_s, 4),
            "shards": run.manifest["totals"]["shards"],
            "outcomes": run.manifest["totals"]["outcomes"],
            "memo_hit_rate": run.manifest["totals"]["memo_hit_rate"],
        }

"""Consistent-hash cluster: a front router over N serving daemons.

``python -m repro cluster --workers N`` grows the single ``repro
serve`` daemon into production shape: one asyncio front router listens
on the public endpoint and consistent-hashes every submit's canonical
``job_key`` onto a ring of supervised daemon *workers* (each its own
``python -m repro serve`` process on a private Unix socket, all
sharing the persistent replay store -- the store is one SQLite file, so
concurrent workers merge safely).  Because identical submissions hash
to the same worker, the per-worker dedup-join and LRU result cache
keep collapsing duplicates exactly as in the single-daemon case; the
ring just shards the key space.

Failover: a supervisor task polls worker processes and health.  A dead
worker is removed from the ring (only *its* arc rehashes -- the other
workers keep their keys, preserving their warm caches), restarted, and
re-added once it answers ``health`` again.  A submit that loses its
worker mid-flight is transparently resubmitted to the rehashed ring.

Load shedding: when a worker answers ``queue_full``, the router
remembers its EWMA-derived ``retry_after`` and refuses further submits
hashing to that arc at the router (reply carries ``shed_by:
"router"``) until the window expires, so an overloaded worker is not
hammered with admission traffic it would only reject.

The router speaks the same ``repro-serve/1`` protocol as a single
daemon -- ``repro submit/status/drain`` and :class:`ServeClient` work
unchanged against a cluster endpoint; ``status`` aggregates worker
counters and adds a ``cluster`` block.
"""
from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .. import faults, obs
from ..harness.runner import DEFAULT_SCALE
from . import protocol
from .jobs import DEFAULT_QUEUE_LIMIT, job_key

#: virtual nodes per worker on the hash ring; enough that removing one
#: worker spreads its arc roughly evenly over the survivors
DEFAULT_RING_REPLICAS = 64

#: how often the supervisor polls worker liveness/health
SUPERVISE_INTERVAL_S = 0.25

#: per-probe timeout for supervisor health checks and control verbs
PROBE_TIMEOUT_S = 5.0

#: transparent resubmit budget when a submit loses its worker
RESUBMIT_ATTEMPTS = 8

#: default restarts a single worker may consume before it is left dead
DEFAULT_RESTART_LIMIT = 8

#: default grace for the whole-cluster drain (workers + router)
DEFAULT_CLUSTER_DRAIN_GRACE_S = 60.0


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class HashRing:
    """Consistent hashing of string keys onto named workers.

    Each worker owns ``replicas`` virtual points; a key maps to the
    first point clockwise from its own hash.  Hashing is blake2b --
    stable across processes and Python versions (``hash()`` is seeded
    per process), so the same key always lands on the same worker and
    a worker-set change only remaps the arcs the change touches.
    """

    def __init__(self, workers: Tuple[str, ...] = (),
                 replicas: int = DEFAULT_RING_REPLICAS):
        self.replicas = max(1, replicas)
        self._points: List[Tuple[int, str]] = []     # sorted (point, id)
        self._workers: set = set()
        for worker_id in workers:
            self.add(worker_id)

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.blake2b(label.encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def add(self, worker_id: str) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for replica in range(self.replicas):
            entry = (self._point(f"{worker_id}#{replica}"), worker_id)
            bisect.insort(self._points, entry)

    def remove(self, worker_id: str) -> None:
        self._workers.discard(worker_id)
        self._points = [(p, w) for (p, w) in self._points
                        if w != worker_id]

    def lookup(self, key: str) -> Optional[str]:
        """The worker owning ``key``; None when the ring is empty."""
        if not self._points:
            return None
        point = self._point(key)
        # "" sorts before every worker id, so this lands on the first
        # ring point with point >= key-point (successor-or-equal)
        i = bisect.bisect_left(self._points, (point, ""))
        if i == len(self._points):
            i = 0
        return self._points[i][1]

    def workers(self) -> List[str]:
        return sorted(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def __len__(self) -> int:
        return len(self._workers)


# ----------------------------------------------------------------------
# supervised worker process
# ----------------------------------------------------------------------
@dataclass
class WorkerConfig:
    """Knobs forwarded to every spawned ``repro serve`` worker."""

    queue_limit: int = DEFAULT_QUEUE_LIMIT
    cache_size: int = 64
    job_threads: int = 2
    service_workers: int = 1
    shard_timeout_s: Optional[float] = None
    store_dir: Optional[str] = None
    use_store: bool = True
    synthetic_s: Optional[float] = None
    drain_grace_s: float = DEFAULT_CLUSTER_DRAIN_GRACE_S


class WorkerHandle:
    """One supervised daemon worker: spawn / liveness / kill / respawn.

    The worker is a real ``python -m repro serve`` subprocess on its
    own Unix socket; its stdout/stderr append to ``<socket>.log`` so a
    crash is debuggable across restarts.
    """

    def __init__(self, worker_id: str, socket_path: str,
                 config: WorkerConfig):
        self.worker_id = worker_id
        self.socket_path = socket_path
        self.config = config
        self.proc: Optional[subprocess.Popen] = None
        self.restarts = 0
        self._log = None

    def _argv(self) -> List[str]:
        cfg = self.config
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket_path,
            "--queue-limit", str(cfg.queue_limit),
            "--cache-size", str(cfg.cache_size),
            "--job-threads", str(cfg.job_threads),
            "--workers", str(cfg.service_workers),
            "--drain-grace", str(cfg.drain_grace_s),
        ]
        if cfg.shard_timeout_s is not None:
            argv += ["--timeout", str(cfg.shard_timeout_s)]
        if cfg.synthetic_s is not None:
            argv += ["--synthetic", str(cfg.synthetic_s)]
        if cfg.store_dir:
            argv += ["--store-dir", cfg.store_dir]
        if not cfg.use_store:
            argv += ["--no-store"]
        return argv

    @staticmethod
    def _env() -> Dict[str, str]:
        """Child env with this repro package importable."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        prev = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not prev
                             else src_dir + os.pathsep + prev)
        return env

    def spawn(self) -> None:
        if self._log is None:
            self._log = open(self.socket_path + ".log", "ab")
        try:
            os.unlink(self.socket_path)     # a stale socket blocks bind
        except OSError:
            pass
        self.proc = subprocess.Popen(
            self._argv(), env=self._env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def respawn(self) -> None:
        self.restarts += 1
        self.spawn()

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def returncode(self) -> Optional[int]:
        return self.proc.poll() if self.proc is not None else None

    def kill(self) -> None:
        """SIGKILL the current incarnation (chaos / loadtest hook)."""
        if self.alive():
            self.proc.kill()

    def terminate(self) -> None:
        if self.alive():
            self.proc.terminate()

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None


# ----------------------------------------------------------------------
# the front router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Front router: one public endpoint over N daemon workers.

    Two modes:

    * **spawn** (default) -- the router spawns, supervises and restarts
      ``num_workers`` subprocess daemons on private Unix sockets under
      ``worker_dir``;
    * **attach** -- ``attach`` maps worker ids to existing daemon
      socket paths (the test harness runs in-process daemons); the
      router routes and health-checks but never spawns or restarts.
    """

    def __init__(
        self,
        *,
        num_workers: int = 3,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        socket_path: Optional[str] = None,
        worker_dir: Optional[str] = None,
        worker_config: Optional[WorkerConfig] = None,
        attach: Optional[Dict[str, str]] = None,
        ring_replicas: int = DEFAULT_RING_REPLICAS,
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        drain_grace_s: float = DEFAULT_CLUSTER_DRAIN_GRACE_S,
        worker_boot_timeout_s: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.drain_grace_s = drain_grace_s
        self.worker_boot_timeout_s = worker_boot_timeout_s
        self.restart_limit = restart_limit
        self.ring = HashRing(replicas=ring_replicas)
        self._handles: Dict[str, WorkerHandle] = {}
        self._sockets: Dict[str, str] = {}
        self._own_worker_dir: Optional[str] = None
        if attach:
            self._sockets = dict(attach)
        else:
            if worker_dir is None:
                worker_dir = tempfile.mkdtemp(prefix="repro-cluster-")
                self._own_worker_dir = worker_dir
            os.makedirs(worker_dir, exist_ok=True)
            config = worker_config or WorkerConfig()
            for i in range(max(1, num_workers)):
                worker_id = f"w{i}"
                sock = os.path.join(worker_dir, f"{worker_id}.sock")
                self._handles[worker_id] = WorkerHandle(worker_id, sock,
                                                        config)
                self._sockets[worker_id] = sock
        #: router-level counters (authoritative for ``status``)
        self.routed = 0
        self.resubmits = 0
        self.shed = 0
        self.worker_deaths = 0
        self.worker_restarts = 0
        #: worker_id -> (monotonic shed deadline, original retry_after)
        self._shed_until: Dict[str, Tuple[float, float]] = {}
        self.killed: List[str] = []
        self.ready = threading.Event()
        self.draining = False
        self.drain_reason: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._supervisor_task: Optional[asyncio.Task] = None
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
                break
        await self._boot_workers()
        if self.socket_path:
            server = await asyncio.start_unix_server(
                self._on_connect, path=self.socket_path)
        else:
            server = await asyncio.start_server(
                self._on_connect, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
        self._supervisor_task = asyncio.ensure_future(self._supervise())
        self.ready.set()
        print(f"[cluster] routing on {self.endpoint_desc()} "
              f"(pid {os.getpid()}, {len(self.ring)} worker(s) "
              f"on the ring)", flush=True)
        try:
            await self._done.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self._supervisor_task is not None:
                self._supervisor_task.cancel()
                try:
                    await self._supervisor_task
                except asyncio.CancelledError:
                    pass
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=10.0)
            for handle in self._handles.values():
                handle.close()
            if self.socket_path:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
        print(f"[cluster] drained ({self.drain_reason}): "
              f"{self.routed} routed, {self.resubmits} resubmitted, "
              f"{self.shed} shed, {self.worker_deaths} worker death(s), "
              f"exit {self._exit_code}", flush=True)
        return self._exit_code

    async def _boot_workers(self) -> None:
        """Spawn every worker and wait for health (spawn mode), or
        probe the attached endpoints once (attach mode)."""
        for handle in self._handles.values():
            handle.spawn()
        deadline = time.monotonic() + self.worker_boot_timeout_s
        pending = set(self._sockets)
        while pending and time.monotonic() < deadline:
            for worker_id in sorted(pending):
                if await self._probe_health(worker_id):
                    self.ring.add(worker_id)
                    pending.discard(worker_id)
            if pending:
                await asyncio.sleep(0.1)
        if not len(self.ring):
            raise RuntimeError(
                f"no cluster worker became healthy within "
                f"{self.worker_boot_timeout_s:.0f}s "
                f"(sockets: {sorted(self._sockets.values())})")
        if pending:
            print(f"[cluster] WARNING: worker(s) {sorted(pending)} not "
                  f"healthy at boot; continuing with {len(self.ring)}",
                  flush=True)

    def begin_drain(self, reason: str = "drain") -> None:
        """Drain the whole cluster: workers first, then the router."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        obs.count("cluster.drains")
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        faults.failpoint("serve.drain")
        deadline = time.monotonic() + self.drain_grace_s
        # ask every spawned worker to drain (attach-mode workers are
        # externally owned and left running); a worker that cannot be
        # reached -- e.g. a just-restarted one still booting -- gets a
        # SIGTERM, which lands on the daemon's own drain path anyway
        clean_codes: Dict[str, Tuple[int, ...]] = {}
        for worker_id, handle in self._handles.items():
            if not handle.alive():
                continue        # already dead and accounted for
            acked = False
            for _ in range(3):
                try:
                    await self._worker_request(
                        worker_id, protocol.request("drain"),
                        timeout=PROBE_TIMEOUT_S)
                    acked = True
                    break
                except Exception:
                    await asyncio.sleep(0.2)
            if acked:
                clean_codes[worker_id] = (0,)
            else:
                handle.terminate()
                # a pre-signal-handler exit shows as -SIGTERM; the
                # worker still stopped on request, so that is clean
                clean_codes[worker_id] = (0, -signal.SIGTERM)
        for worker_id, handle in self._handles.items():
            if worker_id not in clean_codes:
                continue
            while handle.alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if handle.alive():
                handle.kill()
                obs.count("cluster.drain_killed_workers")
                self._exit_code = 1
            elif handle.returncode not in clean_codes[worker_id]:
                self._exit_code = 1
        assert self._done is not None
        self._done.set()

    def request_shutdown(self, reason: str = "shutdown") -> None:
        """Thread-safe drain trigger (harness/tests)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.begin_drain, reason)

    def kill_worker(self, index: Optional[int] = None,
                    worker_id: Optional[str] = None) -> Optional[str]:
        """SIGKILL one live worker (chaos / loadtest hook); returns its
        id, or None when nothing was killable.  Thread-safe: only the
        process is signalled here -- ring bookkeeping stays on the
        event loop (the supervisor notices the death)."""
        candidates = [w for w in self.ring.workers()
                      if w in self._handles and self._handles[w].alive()]
        if not candidates:
            return None
        if worker_id is None:
            worker_id = candidates[(index or 0) % len(candidates)]
        if worker_id not in self._handles:
            return None
        self._handles[worker_id].kill()
        self.killed.append(worker_id)
        return worker_id

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        try:
            while not self.draining:
                for worker_id in list(self._sockets):
                    await self._check_worker(worker_id)
                    if self.draining:
                        break
                await asyncio.sleep(SUPERVISE_INTERVAL_S)
        except asyncio.CancelledError:
            raise

    async def _check_worker(self, worker_id: str) -> None:
        handle = self._handles.get(worker_id)
        if handle is not None and not handle.alive():
            self._evict(worker_id,
                        f"process died (exit {handle.returncode})")
            if self.draining:
                return
            if handle.restarts >= self.restart_limit:
                return                  # stays dead; arc stays rehashed
            handle.respawn()
            self.worker_restarts += 1
            obs.count("cluster.worker_restarts")
            print(f"[cluster] restarted worker {worker_id} "
                  f"(restart #{handle.restarts})", flush=True)
            return                      # re-added once health answers
        healthy = await self._probe_health(worker_id)
        if healthy and worker_id not in self.ring:
            self.ring.add(worker_id)
            obs.count("cluster.worker_rejoins")
            print(f"[cluster] worker {worker_id} healthy; "
                  f"re-added to the ring", flush=True)
        elif not healthy and worker_id in self.ring and handle is None:
            # attach mode: the endpoint went away (externally drained)
            self._evict(worker_id, "health probe failed")

    def _evict(self, worker_id: str, why: str) -> None:
        """Take a worker off the ring (idempotent); its arc rehashes to
        the survivors and in-flight submits resubmit there."""
        if worker_id not in self.ring:
            return
        self.ring.remove(worker_id)
        self._shed_until.pop(worker_id, None)
        self.worker_deaths += 1
        obs.count("cluster.worker_deaths")
        print(f"[cluster] worker {worker_id} evicted: {why}; "
              f"arc rehashed over {self.ring.workers()}", flush=True)

    async def _probe_health(self, worker_id: str) -> bool:
        try:
            reply = await self._worker_request(
                worker_id, protocol.request("health"),
                timeout=PROBE_TIMEOUT_S)
            # a draining worker still answers ok=True; it must not be
            # (re-)added to the ring -- it is on its way out
            return bool(reply.get("ok")) and reply.get("status") == "ok"
        except Exception:
            return False

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    async def _worker_request(self, worker_id: str,
                              payload: Dict[str, Any],
                              timeout: Optional[float] = None,
                              ) -> Dict[str, Any]:
        """One request/reply round trip to a worker's socket."""

        async def round_trip() -> Dict[str, Any]:
            reader, writer = await asyncio.open_unix_connection(
                self._sockets[worker_id])
            try:
                await protocol.write_frame(writer, payload)
                reply = await protocol.read_frame(reader)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
            if reply is None:
                raise ConnectionResetError(
                    f"worker {worker_id} closed without replying")
            return reply

        if timeout is None:
            return await round_trip()
        return await asyncio.wait_for(round_trip(), timeout)

    # ------------------------------------------------------------------
    # connection handling (mirrors ReproServer)
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
            obs.count("cluster.internal_errors")
            faults.note_surfaced(exc)
            return protocol.error_reply(verb, "internal_error",
                                        detail=traceback.format_exc())

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def _routing_key(self, msg: Dict[str, Any]) -> str:
        """The same canonical key the worker's admission will use, so
        duplicates land on one worker and keep collapsing there."""
        return job_key({
            "experiment": msg.get("experiment"),
            "scale": float(msg.get("scale", DEFAULT_SCALE)),
            "seed": int(msg.get("seed", 7)),
            "quick": bool(msg.get("quick", False)),
            "params": msg.get("params") or {},
        })

    def _shed_remaining(self, worker_id: str) -> Optional[float]:
        entry = self._shed_until.get(worker_id)
        if entry is None:
            return None
        remaining = entry[0] - time.monotonic()
        if remaining <= 0:
            del self._shed_until[worker_id]
            return None
        return round(remaining, 2)

    async def _submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        obs.count("cluster.submits")
        if self.draining:
            return protocol.error_reply(
                "submit", "draining",
                detail="cluster is draining; not admitting new jobs")
        try:
            key = self._routing_key(msg)
        except (TypeError, ValueError) as exc:
            return protocol.error_reply(
                "submit", "bad_request",
                detail=f"unroutable submit: {exc}")
        attempts = 0
        while True:
            worker_id = self.ring.lookup(key)
            if worker_id is None:
                # the ring is empty: give the supervisor a moment to
                # revive someone before giving up
                attempts += 1
                if attempts >= RESUBMIT_ATTEMPTS:
                    obs.count("cluster.no_workers")
                    return protocol.error_reply(
                        "submit", "no_workers",
                        detail="no healthy worker on the ring")
                await asyncio.sleep(min(0.1 * attempts, 1.0))
                continue
            shed_after = self._shed_remaining(worker_id)
            if shed_after is not None:
                self.shed += 1
                obs.count("cluster.shed")
                return protocol.error_reply(
                    "submit", "queue_full",
                    retry_after=shed_after, shed_by="router",
                    worker=worker_id,
                    detail="worker arc is in backpressure; retry after "
                           "the given delay")
            try:
                reply = await self._worker_request(worker_id, msg)
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, protocol.ProtocolError) as exc:
                # the worker died (or its socket did) with our submit in
                # flight: evict it and resubmit to the rehashed ring
                faults.note_retried(exc)
                self._evict(worker_id, f"lost mid-submit ({exc!r:.60})")
                attempts += 1
                if attempts >= RESUBMIT_ATTEMPTS:
                    obs.count("cluster.no_workers")
                    return protocol.error_reply(
                        "submit", "no_workers",
                        detail=f"submit failed on {attempts} workers; "
                               f"last: {exc!r:.120}")
                self.resubmits += 1
                obs.count("cluster.resubmits")
                await asyncio.sleep(min(0.05 * attempts, 0.5))
                continue
            if not reply.get("ok") and reply.get("error") == "draining" \
                    and not self.draining:
                # an attach-mode worker is being drained out from under
                # us: treat it like a death and fail over
                self._evict(worker_id, "worker is draining")
                attempts += 1
                if attempts >= RESUBMIT_ATTEMPTS:
                    obs.count("cluster.no_workers")
                    return protocol.error_reply(
                        "submit", "no_workers",
                        detail="every worker is draining")
                self.resubmits += 1
                obs.count("cluster.resubmits")
                continue
            self.routed += 1
            if not reply.get("ok") and reply.get("error") == "queue_full":
                retry_after = reply.get("retry_after")
                if isinstance(retry_after, (int, float)) \
                        and not isinstance(retry_after, bool) \
                        and retry_after > 0:
                    self._shed_until[worker_id] = (
                        time.monotonic() + float(retry_after),
                        float(retry_after))
                obs.count("cluster.backpressure")
            elif reply.get("ok"):
                self._shed_until.pop(worker_id, None)
            reply.setdefault("worker", worker_id)
            return reply

    async def _health(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.response(
            "health",
            status="draining" if self.draining else "ok",
            inflight=0,
            cluster=True,
            workers_on_ring=len(self.ring),
        )

    async def _status(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        per_worker: Dict[str, Dict[str, Any]] = {}
        for worker_id in sorted(self._sockets):
            if worker_id not in self.ring:
                handle = self._handles.get(worker_id)
                per_worker[worker_id] = {
                    "alive": False,
                    "restarts": handle.restarts if handle else 0,
                }
                continue
            try:
                reply = await self._worker_request(
                    worker_id, protocol.request("status"),
                    timeout=PROBE_TIMEOUT_S)
            except Exception as exc:
                per_worker[worker_id] = {"alive": False,
                                         "error": repr(exc)}
                continue
            handle = self._handles.get(worker_id)
            per_worker[worker_id] = {
                "alive": True,
                "restarts": handle.restarts if handle else 0,
                "inflight": reply.get("inflight", 0),
                "queue_limit": reply.get("queue_limit", 0),
                "jobs_admitted": reply.get("jobs_admitted", 0),
                "jobs_completed": reply.get("jobs_completed", 0),
                "jobs_failed": reply.get("jobs_failed", 0),
                "dedup_joined": reply.get("dedup_joined", 0),
                "rejected_queue_full": reply.get("rejected_queue_full", 0),
                "cache": reply.get("cache", {}),
                "pid": reply.get("pid"),
            }
        live = [w for w in per_worker.values() if w.get("alive")]

        def agg(field_name: str) -> int:
            return sum(w.get(field_name, 0) for w in live)

        cache = {k: sum(w.get("cache", {}).get(k, 0) for w in live)
                 for k in ("hits", "misses", "evictions", "size",
                           "capacity")}
        return protocol.response(
            "status",
            draining=self.draining,
            uptime_s=round(time.monotonic() - self._t0, 3),
            pid=os.getpid(),
            endpoint=self.endpoint_desc(),
            # single-daemon-compatible aggregate fields (the plain
            # ``repro status`` renderer works against a cluster)
            inflight=agg("inflight"),
            queue_limit=agg("queue_limit"),
            job_threads=sum(1 for _ in live),
            service_workers=len(self._sockets),
            store_dir=None,
            jobs_admitted=agg("jobs_admitted"),
            jobs_completed=agg("jobs_completed"),
            jobs_failed=agg("jobs_failed"),
            dedup_joined=agg("dedup_joined"),
            rejected_queue_full=agg("rejected_queue_full"),
            cache=cache,
            cluster={
                "ring": self.ring.workers(),
                "replicas": self.ring.replicas,
                "routed": self.routed,
                "resubmits": self.resubmits,
                "shed": self.shed,
                "worker_deaths": self.worker_deaths,
                "worker_restarts": self.worker_restarts,
                "shedding": sorted(self._shed_until),
                "killed": list(self.killed),
            },
            workers=per_worker,
        )

    async def _stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        latency: Dict[str, List[float]] = {}
        inflight = 0
        cache = {"hits": 0, "misses": 0, "evictions": 0, "size": 0,
                 "capacity": 0}
        counters = {"jobs_admitted": 0, "jobs_completed": 0,
                    "jobs_failed": 0, "dedup_joined": 0,
                    "rejected_queue_full": 0}
        for worker_id in self.ring.workers():
            try:
                reply = await self._worker_request(
                    worker_id, protocol.request("stats"),
                    timeout=PROBE_TIMEOUT_S)
            except Exception:
                continue
            inflight += reply.get("inflight", 0)
            for k in cache:
                cache[k] += reply.get("cache", {}).get(k, 0)
            for k in counters:
                counters[k] += reply.get("counters", {}).get(k, 0)
            for name, entry in (reply.get("latency") or {}).items():
                bucket = latency.setdefault(name, [0, 0.0])
                bucket[0] += entry.get("count", 0)
                bucket[1] += entry.get("count", 0) * entry.get("mean_s", 0.0)
        return protocol.response(
            "stats",
            telemetry=obs.snapshot(),
            latency={
                name: {"count": count,
                       "mean_s": total / count if count else 0.0}
                for name, (count, total) in sorted(latency.items())
            },
            cache=cache,
            counters=counters,
            inflight=inflight,
        )

    async def _drain_verb(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self.begin_drain("drain verb")
        return protocol.response("drain", draining=True,
                                 inflight=0, cluster=True)

    async def _experiments(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        for worker_id in self.ring.workers():
            try:
                return await self._worker_request(
                    worker_id, msg, timeout=PROBE_TIMEOUT_S)
            except Exception:
                continue
        return protocol.error_reply(
            "experiments", "no_workers",
            detail="no healthy worker on the ring")

"""The serving daemon: admission, dedup, backpressure, cache, drain."""
from __future__ import annotations

import contextlib
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.serve import LRUCache, ReproServer, ServeClient, ServeError
from repro.serve.jobs import Admission, job_key

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# cache + admission units
# ----------------------------------------------------------------------
def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh 'a'
    cache.put("c", 3)                   # evicts 'b'
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 3 and stats["misses"] == 1
    assert stats["size"] == 2


def test_lru_cache_capacity_zero_disables():
    cache = LRUCache(capacity=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


def test_lru_cache_concurrent_get_put_stress():
    """Regression: unlocked OrderedDict mutation from executor threads.

    8 threads hammer one cache with interleaved get/put; without the
    internal lock this corrupts the OrderedDict (KeyError/RuntimeError
    out of move_to_end/popitem) and loses counter increments.
    """
    cache = LRUCache(capacity=32)
    errors = []
    n_threads, ops = 8, 3000

    def hammer(tid):
        try:
            for i in range(ops):
                key = f"k{(tid * ops + i * 7) % 96}"
                if i % 3 == 0:
                    cache.put(key, i)
                else:
                    cache.get(key)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors
    stats = cache.stats()
    assert stats["size"] <= 32
    # every get incremented exactly one of hits/misses
    total_gets = sum(1 for t in range(n_threads) for i in range(ops)
                     if i % 3 != 0)
    assert stats["hits"] + stats["misses"] == total_gets


def test_job_key_canonical():
    spec = {"experiment": "fig6", "scale": 0.1, "seed": 7,
            "quick": True, "params": {"b": 2, "a": 1}}
    reordered = {"params": {"a": 1, "b": 2}, "quick": True, "seed": 7,
                 "scale": 0.1, "experiment": "fig6"}
    assert job_key(spec) == job_key(reordered)
    assert job_key(spec) != job_key({**spec, "scale": 0.2})
    assert job_key(spec) != job_key({**spec, "params": {"a": 1}})


def test_admission_complete_caches_before_freeing_the_slot():
    """Regression: ``complete`` popped the job before caching, so a
    duplicate submit racing in that window found the key in neither the
    job table nor the cache and was admitted for a full recompute.  The
    probe cache asserts the job is still tabled at ``put`` time: at no
    observable point is the key unclaimed."""

    class ProbeCache(LRUCache):
        def __init__(self, adm_box):
            super().__init__(capacity=4)
            self.adm_box = adm_box
            self.put_seen_tabled = None

        def put(self, key, value):
            # a racing decide() here must dedup-join (key still tabled)
            # or -- after super().put -- hit the cache; never re-admit
            self.put_seen_tabled = key in self.adm_box["adm"].jobs
            super().put(key, value)

    async def scenario():
        box = {}
        adm = Admission(queue_limit=4, cache_size=4)
        box["adm"] = adm
        adm.cache = ProbeCache(box)
        spec = {"experiment": "fig6"}
        decision = adm.decide("k1", spec)
        assert decision.kind == "admitted"
        adm.complete(decision.job, {"rendered": "r"}, wall_s=0.1)
        assert adm.cache.put_seen_tabled is True
        # post-conditions: slot freed, result served from the cache
        assert "k1" not in adm.jobs
        assert adm.decide("k1", spec).kind == "cached"

    import asyncio

    asyncio.run(scenario())


def test_admission_retry_after_tracks_latency():
    adm = Admission(queue_limit=4, cache_size=4, job_threads=2)
    assert adm.retry_after() > 0            # cold default
    adm.ewma_wall_s = 10.0
    adm.jobs = {"k1": None, "k2": None, "k3": None, "k4": None}
    assert adm.retry_after() == pytest.approx(10.0 * 4 / 2, rel=0.01)
    adm.jobs = {}


# ----------------------------------------------------------------------
# in-process server harness (injected compute, Unix socket)
# ----------------------------------------------------------------------
class FakeCompute:
    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.delay = delay
        self.fail = fail
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            self.calls.append(spec["experiment"])
        time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("injected compute failure")
        return {"rendered": f"result:{spec['experiment']}"}


@contextlib.contextmanager
def serving(tmp_path, compute, **kwargs):
    sock = str(tmp_path / "serve.sock")
    kwargs.setdefault("use_store", False)
    server = ReproServer(socket_path=sock, compute=compute, **kwargs)
    rc = {}
    thread = threading.Thread(
        target=lambda: rc.setdefault("code", server.run()), daemon=True)
    thread.start()
    assert server.ready.wait(10), "daemon never started listening"
    try:
        yield server, ServeClient(socket_path=sock), rc
    finally:
        server.request_shutdown()
        thread.join(20)
        assert not thread.is_alive(), "daemon failed to drain"


def _parallel_submits(sock_path, names, **kw):
    """Fire one submit per name from its own thread + connection."""
    replies = [None] * len(names)

    def go(i):
        client = ServeClient(socket_path=sock_path)
        replies[i] = client.submit(names[i], **kw)

    threads = [threading.Thread(target=go, args=(i,))
               for i in range(len(names))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    return replies


def test_health_and_status_idle(tmp_path):
    with serving(tmp_path, FakeCompute()) as (server, client, _):
        health = client.health()
        assert health["ok"] is True and health["status"] == "ok"
        status = client.status()
        assert status["inflight"] == 0
        assert status["draining"] is False
        assert status["jobs_admitted"] == 0
        assert status["endpoint"].startswith("unix:")


def test_concurrent_duplicates_collapse_to_one_computation(tmp_path):
    compute = FakeCompute(delay=0.8)
    with serving(tmp_path, compute) as (server, client, _):
        sock = server.socket_path
        replies = _parallel_submits(sock, ["fig6"] * 4, quick=True,
                                    scale=0.05)
        assert all(r["ok"] for r in replies)
        assert all(r["rendered"] == "result:fig6" for r in replies)
        outcomes = sorted(r["outcome"] for r in replies)
        assert outcomes == ["computed", "dedup", "dedup", "dedup"]
        assert compute.calls == ["fig6"]            # exactly one run
        assert all(r["waiters"] == 4 for r in replies)
        status = client.status()
        assert status["jobs_admitted"] == 1
        assert status["jobs_completed"] == 1
        assert status["dedup_joined"] == 3


def test_queue_full_returns_backpressure_reply(tmp_path):
    compute = FakeCompute(delay=1.0)
    with serving(tmp_path, compute, queue_limit=1,
                 job_threads=1) as (server, client, _):
        slow = threading.Thread(
            target=lambda: ServeClient(
                socket_path=server.socket_path).submit("fig6"))
        slow.start()
        deadline = time.monotonic() + 5.0
        while client.status()["inflight"] == 0:
            assert time.monotonic() < deadline, "job never admitted"
            time.sleep(0.02)
        reply = client.submit("fig7")        # distinct key, queue full
        slow.join(15)
        assert reply["ok"] is False
        assert reply["error"] == "queue_full"
        assert reply["retry_after"] >= 0
        assert reply["queue_limit"] == 1
        assert client.status()["rejected_queue_full"] == 1
        # once the queue drains, the same submission is admitted
        retry = client.submit("fig7")
        assert retry["ok"] is True and retry["outcome"] == "computed"


def test_cold_then_warm_submit_hits_the_cache(tmp_path):
    compute = FakeCompute()
    with serving(tmp_path, compute) as (server, client, _):
        cold = client.submit("init", quick=True)
        warm = client.submit("init", quick=True)
        assert cold["outcome"] == "computed"
        assert warm["outcome"] == "cached"
        assert warm["rendered"] == cold["rendered"]
        assert compute.calls == ["init"]
        status = client.status()
        assert status["cache"]["hits"] == 1
        # a different key misses the cache and recomputes
        other = client.submit("init", quick=True, scale=0.07)
        assert other["outcome"] == "computed"
        stats = client.stats()
        obs.validate_payload(stats["telemetry"])
        assert stats["cache"]["hits"] == 1
        assert stats["counters"]["jobs_completed"] == 2
        assert stats["latency"]["init"]["count"] == 2


def test_health_and_stats_answer_while_job_in_flight(tmp_path):
    compute = FakeCompute(delay=1.0)
    with serving(tmp_path, compute) as (server, client, _):
        bg = threading.Thread(
            target=lambda: ServeClient(
                socket_path=server.socket_path).submit("fig6"))
        bg.start()
        deadline = time.monotonic() + 5.0
        while client.health()["inflight"] == 0:
            assert time.monotonic() < deadline, "job never admitted"
            time.sleep(0.02)
        t0 = time.perf_counter()
        health = client.health()
        stats = client.stats()
        elapsed = time.perf_counter() - t0
        bg.join(15)
        assert health["ok"] and health["inflight"] == 1
        assert stats["ok"] and stats["inflight"] == 1
        obs.validate_payload(stats["telemetry"])
        assert elapsed < 0.9, "control verbs blocked behind the job"


def test_failed_job_reports_and_is_not_cached(tmp_path):
    compute = FakeCompute(fail=True)
    with serving(tmp_path, compute) as (server, client, _):
        reply = client.submit("fig6")
        assert reply["ok"] is False
        assert reply["error"] == "job_failed"
        assert "injected compute failure" in reply["detail"]
        status = client.status()
        assert status["jobs_failed"] == 1
        assert status["cache"]["size"] == 0
        assert status["inflight"] == 0      # the slot was freed


def test_unknown_experiment_rejected_with_hint(tmp_path):
    with serving(tmp_path, FakeCompute()) as (server, client, _):
        reply = client.submit("fig66")
        assert reply["ok"] is False
        assert reply["error"] == "unknown_experiment"
        assert "fig6" in reply["hint"]


@pytest.mark.parametrize("fields", [
    {"quick": "false"},
    {"quick": 1},
    {"scale": "abc"},
    {"scale": 0},
    {"scale": -0.5},
    {"scale": float("nan")},
    {"scale": float("inf")},
    {"scale": True},
    {"seed": "x"},
    {"seed": 2.9},
    {"seed": False},
])
def test_submit_rejects_malformed_fields_before_admission(fields):
    # a submit's scale/seed/quick are checked, never coerced: each of
    # these was once computed (or crashed into internal_error)
    import asyncio

    from repro.serve import protocol

    compute = FakeCompute()
    server = ReproServer(compute=compute, use_store=False)
    try:
        reply = asyncio.run(server._dispatch({
            "schema": protocol.SCHEMA, "verb": "submit",
            "experiment": "init", **fields}))
    finally:
        server._executor.shutdown(wait=True)
    assert reply["ok"] is False
    assert reply["error"] == "bad_request", reply
    assert compute.calls == []
    assert server.admission.jobs == {}


def test_drain_finishes_inflight_then_refuses_submits(tmp_path):
    compute = FakeCompute(delay=1.0)
    with serving(tmp_path, compute) as (server, client, rc):
        result = {}
        bg = threading.Thread(
            target=lambda: result.setdefault("r", ServeClient(
                socket_path=server.socket_path).submit("fig6")))
        bg.start()
        deadline = time.monotonic() + 5.0
        while client.status()["inflight"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        drain = client.drain()
        assert drain["ok"] is True and drain["inflight"] == 1
        # still answering, but not admitting
        refused = client.submit("fig7")
        assert refused["ok"] is False and refused["error"] == "draining"
        assert client.health()["status"] == "draining"
        bg.join(15)
        assert result["r"]["ok"] is True    # in-flight job completed
    assert rc["code"] == 0
    # the daemon is gone: connections now fail
    with pytest.raises(ServeError):
        ServeClient(socket_path=str(tmp_path / "serve.sock")).health()


# ----------------------------------------------------------------------
# client timeout contract (regression: hardcoded/unbounded waits)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def silent_listener(tmp_path=None):
    """A server that accepts connections but never replies.

    Yields a (host, port, socket_path) triple; socket_path is None in
    TCP mode.  Models a hung daemon for the timeout regressions.
    """
    import socket as socket_mod

    if tmp_path is not None:
        path = str(tmp_path / "silent.sock")
        srv = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        srv.bind(path)
    else:
        path = None
        srv = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
    srv.listen(8)
    srv.settimeout(0.1)
    accepted = []
    stop = threading.Event()

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = srv.accept()
            except OSError:
                continue
            accepted.append(conn)         # hold it open, never reply

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        if path is None:
            yield srv.getsockname()[0], srv.getsockname()[1], None
        else:
            yield None, None, path
    finally:
        stop.set()
        thread.join(5)
        for conn in accepted:
            conn.close()
        srv.close()


def test_client_receive_respects_instance_timeout_unix(tmp_path):
    """Regression: the receive must honor ``self.timeout`` -- a hung
    daemon bounds the request at the configured timeout, not forever."""
    with silent_listener(tmp_path) as (_, _, path):
        client = ServeClient(socket_path=path, timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(ServeError):
            client.health()
        assert time.monotonic() - t0 < 5.0


def test_client_connect_respects_instance_timeout_tcp():
    """Regression: ``socket.create_connection`` hardcoded a 10s connect
    timeout, ignoring the configured ``self.timeout`` on the TCP path."""
    with silent_listener() as (host, port, _):
        client = ServeClient(host=host, port=port, timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(ServeError):
            client.status()
        assert time.monotonic() - t0 < 5.0


def test_wait_until_ready_bounds_the_receive(tmp_path):
    """Regression: with ``self.timeout is None``, wait_until_ready only
    bounded *connect* retries -- a daemon that accepted but never
    replied hung the client forever.  The receive now consumes the same
    deadline."""
    with silent_listener(tmp_path) as (_, _, path):
        client = ServeClient(socket_path=path, timeout=None)
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="not ready|closed|connect"):
            client.wait_until_ready(1.0)
        assert time.monotonic() - t0 < 6.0


# ----------------------------------------------------------------------
# the real daemon: subprocess + SIGTERM drain + store flush
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sigterm_drains_inflight_job_and_flushes_store(tmp_path):
    sock = tmp_path / "serve.sock"
    store = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         "--workers", "1", "--store-dir", str(store),
         "--drain-grace", "120"],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        client = ServeClient(socket_path=str(sock))
        client.wait_until_ready(30.0)
        result = {}
        bg = threading.Thread(
            target=lambda: result.setdefault("r", client.submit(
                "fig12b", quick=True, scale=0.05)))
        bg.start()
        time.sleep(0.3)                     # let the job get admitted
        proc.send_signal(signal.SIGTERM)    # drain mid-flight
        bg.join(120)
        out, _ = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait(timeout=10)
        raise
    assert proc.returncode == 0, out
    assert result["r"]["ok"] is True, result["r"]
    assert "Figure 12b" in result["r"]["rendered"]
    assert "[serve] drained (SIGTERM)" in out
    # the replay store was flushed, and the daemon left no transaction
    # open: a fresh writer gets in without waiting
    from repro.harness.store import ReplayMemoStore

    replay_store = ReplayMemoStore(store)
    assert replay_store.is_warm(), "store was never flushed"
    with sqlite3.connect(str(replay_store.path), timeout=0) as conn:
        conn.execute("BEGIN IMMEDIATE")
    # the socket file was cleaned up
    assert not sock.exists()

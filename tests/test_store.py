"""The persistent replay store: durability, locking, versioning."""
from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.harness.store import (
    STORE_VERSION,
    PersistentReplayMemo,
    ReplayMemoStore,
    _FileLock,
    _reset_bucket_warnings,
    bucket_name,
    default_store_dir,
    memo_for,
)


@pytest.fixture
def store(tmp_path):
    return ReplayMemoStore(tmp_path / "store")


def test_bucket_name_is_engine_and_config_scoped():
    cfg = small_config()
    name = bucket_name(cfg)
    assert cfg.name.replace(" ", "-") in name or cfg.name in name
    assert "__" in name
    scoped = bucket_name(cfg, scope="TRAF-coal")
    assert scoped.startswith(name)
    assert scoped.endswith("TRAF-coal")


def test_bucket_name_sanitizes_scope():
    cfg = small_config()
    assert "/" not in bucket_name(cfg, scope="a/b c")


def test_default_store_dir_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", "/tmp/elsewhere")
    assert default_store_dir() == "/tmp/elsewhere"
    monkeypatch.delenv("REPRO_STORE_DIR")
    assert default_store_dir().endswith("replay_store")


def test_cold_bucket_is_empty(store):
    assert store.load_bucket("b") == {}
    assert store.size("b") == 0
    assert not store.is_warm()
    assert store.buckets() == []


def test_merge_and_reload_roundtrip(store):
    entries = {b"k1": ("stats1", 3), b"k2": ("stats2", 4)}
    assert store.merge_bucket("b", entries) == 2
    assert store.load_bucket("b") == entries
    assert store.is_warm()
    assert store.buckets() == ["b"]
    # a second writer's fresh keys merge in; existing keys survive
    assert store.merge_bucket("b", {b"k2": ("other", 0), b"k3": ("s3", 5)}) == 3
    merged = store.load_bucket("b")
    assert merged[b"k2"] == ("stats2", 4)
    assert merged[b"k3"] == ("s3", 5)


def test_version_mismatch_invalidates(store):
    store.merge_bucket("b", {b"k": 1})
    path = store.bucket_path("b")
    payload = pickle.loads(path.read_bytes())
    payload["version"] = STORE_VERSION + 1
    path.write_bytes(pickle.dumps(payload))
    # a stale version is treated as cold, not trusted
    assert store.load_bucket("b") == {}
    # and writing through it rewrites the bucket at the current version
    assert store.merge_bucket("b", {b"k2": 2}) == 1
    assert store.load_bucket("b") == {b"k2": 2}


def test_wrong_schema_invalidates(store):
    path = store.bucket_path("b")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"schema": "someone-elses",
                                   "version": STORE_VERSION,
                                   "entries": {b"k": 1}}))
    assert store.load_bucket("b") == {}


def test_corrupt_file_treated_as_empty(store):
    path = store.bucket_path("b")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x80\x05 this is not a pickle")
    assert store.load_bucket("b") == {}
    assert store.merge_bucket("b", {b"k": 1}) == 1


@pytest.fixture
def fresh_obs():
    reg = obs.Registry(enabled=True)
    prev = obs.set_registry(reg)
    _reset_bucket_warnings()
    try:
        yield reg
    finally:
        obs.set_registry(prev)
        _reset_bucket_warnings()


def test_corrupt_bucket_warns_once_and_counts(store, fresh_obs):
    path = store.bucket_path("b")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x80\x05 this is not a pickle")
    with pytest.warns(RuntimeWarning, match="b.pkl"):
        assert store.load_bucket("b") == {}
    assert fresh_obs.counters["store.bucket_corrupt"] == 1
    # one-shot per bucket: the second read counts but stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.load_bucket("b") == {}
    assert fresh_obs.counters["store.bucket_corrupt"] == 2


def test_version_mismatch_warns_and_counts(store, fresh_obs):
    store.merge_bucket("b", {b"k": 1})
    path = store.bucket_path("b")
    payload = pickle.loads(path.read_bytes())
    payload["version"] = STORE_VERSION + 1
    path.write_bytes(pickle.dumps(payload))
    with pytest.warns(RuntimeWarning, match="version"):
        assert store.load_bucket("b") == {}
    assert fresh_obs.counters["store.bucket_version_mismatch"] == 1


def test_cold_read_is_silent(store, fresh_obs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.load_bucket("never-written") == {}
    assert "store.bucket_corrupt" not in fresh_obs.counters
    assert "store.bucket_version_mismatch" not in fresh_obs.counters


# ----------------------------------------------------------------------
# _FileLock: fcntl fallback and stale-lock handling
# ----------------------------------------------------------------------
def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_lock_file_fallback_without_fcntl(tmp_path, monkeypatch):
    """With fcntl unavailable the O_EXCL lock-file protocol engages."""
    monkeypatch.setitem(sys.modules, "fcntl", None)  # import -> ImportError
    path = tmp_path / "b.lock"
    with _FileLock(path) as lock:
        assert lock._exclusive_file
        assert path.exists()
        # a second contender cannot acquire while we hold it
        with pytest.raises(TimeoutError):
            with _FileLock(path, timeout_s=0.05):
                pass
    assert not path.exists()


def test_flock_oserror_falls_back_without_leaking_fds(tmp_path, monkeypatch):
    """An OSError from flock (e.g. NFS) must close the opened fd and
    fall back to the lock-file protocol, not propagate."""
    import fcntl as real_fcntl

    def broken_flock(fd, op):
        raise OSError("flock not supported on this filesystem")

    monkeypatch.setattr(real_fcntl, "flock", broken_flock)
    path = tmp_path / "b.lock"
    before = _open_fds()
    with _FileLock(path) as lock:
        assert lock._exclusive_file  # acquired via the fallback
        assert _open_fds() == before + 1  # exactly the fallback fd
    assert _open_fds() == before
    assert not path.exists()


def test_stale_lock_is_broken_and_acquired(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "fcntl", None)
    path = tmp_path / "b.lock"
    path.write_bytes(b"")
    old = time.time() - 1000.0
    os.utime(path, (old, old))
    with _FileLock(path, timeout_s=5.0, stale_s=300.0) as lock:
        assert lock._exclusive_file
    assert not path.exists()


def test_stale_break_has_exactly_one_winner(tmp_path):
    """Many waiters judging the same lock stale: the rename-based break
    lets exactly one proceed (a raw unlink lets several 'win' and then
    hold the exclusive lock concurrently)."""
    path = tmp_path / "b.lock"
    n = 8
    winners = []
    barrier = threading.Barrier(n)

    def contend():
        lock = _FileLock(path, stale_s=300.0)
        barrier.wait()
        winners.append(lock._break_stale())

    for trial in range(5):
        path.write_bytes(b"")
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        winners.clear()
        threads = [threading.Thread(target=contend) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sum(winners) == 1, f"trial {trial}: {winners}"
        assert not path.exists()


def _merge_worker_no_fcntl(root, wid, n):
    sys.modules["fcntl"] = None  # force the lock-file fallback
    s = ReplayMemoStore(root)
    for i in range(n):
        s.merge_bucket("shared", {f"w{wid}-{i}".encode(): (wid, i)})


def test_concurrent_fallback_writers_lose_nothing(store):
    """The lock-file protocol under real contention, stale file present
    at the start: every entry must survive."""
    lock_path = store._lock_path("shared")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_bytes(b"")
    old = time.time() - 1000.0
    os.utime(lock_path, (old, old))
    n_workers, n_entries = 4, 10
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_merge_worker_no_fcntl,
                    args=(str(store.root), w, n_entries))
        for w in range(n_workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    merged = store.load_bucket("shared")
    assert len(merged) == n_workers * n_entries


def test_clear_removes_buckets(store):
    store.merge_bucket("a", {b"k": 1})
    store.merge_bucket("b", {b"k": 2})
    store.clear()
    assert not store.is_warm()
    assert store.buckets() == []


def _merge_worker(root, wid, n):
    s = ReplayMemoStore(root)
    for i in range(n):
        s.merge_bucket("shared", {f"w{wid}-{i}".encode(): (wid, i)})


def test_concurrent_writers_lose_nothing(store, tmp_path):
    """Many processes hammering one bucket: every entry must survive."""
    n_workers, n_entries = 4, 25
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_merge_worker,
                    args=(str(store.root), w, n_entries))
        for w in range(n_workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    merged = store.load_bucket("shared")
    assert len(merged) == n_workers * n_entries
    for w in range(n_workers):
        for i in range(n_entries):
            assert merged[f"w{w}-{i}".encode()] == (w, i)


class TestPersistentReplayMemo:
    def _run(self, memo):
        m = Machine("cuda", config=small_config())
        m.set_replay_memo(memo)
        arr = m.array_from(np.arange(128, dtype=np.uint64), "u64")

        def k(ctx):
            arr.st(ctx, ctx.tid, arr.ld(ctx, ctx.tid) + np.uint64(1))

        m.launch(k, 128)
        return m.run_stats

    def test_flush_then_preload_replays(self, store):
        memo1 = memo_for(store, small_config())
        base = self._run(memo1)
        assert memo1.misses > 0 and memo1.hits == 0
        memo1.flush()

        # a brand-new memo (fresh process, conceptually) preloads the
        # persisted entries and replays the identical run entirely
        memo2 = memo_for(store, small_config())
        assert memo2.preloaded == memo1.misses
        replayed = self._run(memo2)
        assert memo2.hits == memo1.misses
        assert memo2.misses == 0
        assert replayed == base

    def test_flush_is_incremental(self, store):
        memo = memo_for(store, small_config())
        self._run(memo)
        n = memo.flush()
        assert n > 0
        # nothing new learned since -> flush is a no-op read
        assert memo.flush() == n

    def test_scoped_buckets_are_disjoint_files(self, store):
        cfg = small_config()
        a = memo_for(store, cfg, scope="TRAF-coal")
        b = memo_for(store, cfg, scope="exp-fig12a")
        assert a.bucket != b.bucket
        self._run(a)
        a.flush()
        assert store.size(a.bucket) > 0
        assert store.size(b.bucket) == 0

    def test_isinstance_of_replay_memo(self, store):
        from repro.harness.runner import ReplayMemo

        assert isinstance(memo_for(store, small_config()), ReplayMemo)
        assert isinstance(
            PersistentReplayMemo(store, "b"), ReplayMemo
        )

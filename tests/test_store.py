"""The persistent replay store: durability, concurrency, versioning."""
from __future__ import annotations

import multiprocessing
import os
import pickle
import sqlite3
import warnings

import numpy as np
import pytest

from repro import obs
from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.gpu.stats import KernelStats
from repro.harness.store import (
    STORE_VERSION,
    PersistentReplayMemo,
    ReplayMemoStore,
    _reset_bucket_warnings,
    bucket_name,
    default_store_dir,
    memo_for,
)


@pytest.fixture
def store(tmp_path):
    return ReplayMemoStore(tmp_path / "store")


def _delta(n, **roles) -> KernelStats:
    stats = KernelStats(l1_accesses=n, l1_hits=n // 2, dram_row_misses=1)
    stats.role_levels = {role: list(levels) for role, levels in roles.items()}
    return stats


def _db(store) -> sqlite3.Connection:
    """A raw connection to the store's file, for tampering with it."""
    return sqlite3.connect(str(store.root / "memo.sqlite"))


def _set_version(store, version) -> None:
    with _db(store) as conn:
        conn.execute("UPDATE meta SET value = ? WHERE key = 'version'",
                     (str(version),))


def _insert_raw(store, bucket, key, stats) -> None:
    with _db(store) as conn:
        conn.execute("INSERT INTO memo VALUES (?, ?, ?)",
                     (bucket, key, stats))


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
    assert not store.is_warm()
    assert store.buckets() == []
    assert not store.root.exists()  # reading never creates the store


def test_merge_and_reload_roundtrip(store):
    entries = {b"k1": _delta(3, vtable=[1, 2, 0]), b"k2": _delta(4)}
    assert store.merge_bucket("b", entries) == 2
    assert store.load_bucket("b") == entries
    assert store.is_warm()
    assert store.buckets() == ["b"]
    # a second writer's fresh keys merge in; existing keys survive
    assert store.merge_bucket("b", {b"k2": _delta(9), b"k3": _delta(5)}) == 1
    merged = store.load_bucket("b")
    assert merged[b"k2"] == _delta(4)
    assert merged[b"k3"] == _delta(5)
    assert store.load_bucket("other") == {}


def test_value_holds_only_the_replay_delta(store):
    """A stored value keeps the counters a replay engine sets; the
    rest of KernelStats comes back at its defaults."""
    stats = _delta(7, alloc=[1, 0, 3])
    stats.thread_instrs = 99                      # not a replay counter
    store.merge_bucket("b", {b"k": stats})
    back = store.load_bucket("b")[b"k"]
    assert back.thread_instrs == 0
    back.thread_instrs = 99
    assert back == stats


def test_version_mismatch_invalidates(store):
    store.merge_bucket("b", {b"k": _delta(1)})
    _set_version(store, STORE_VERSION + 1)
    # a stale version is treated as cold, not trusted
    assert store.load_bucket("b") == {}
    assert not store.is_warm()
    # and writing through it recreates the store at the current version
    assert store.merge_bucket("b", {b"k2": _delta(2)}) == 1
    assert store.load_bucket("b") == {b"k2": _delta(2)}


def test_wrong_schema_invalidates(store):
    store.root.mkdir(parents=True)
    with _db(store) as conn:
        conn.execute("CREATE TABLE memo (x INTEGER, y INTEGER)")
        conn.execute("INSERT INTO memo VALUES (1, 2)")
    assert store.load_bucket("b") == {}
    assert store.merge_bucket("b", {b"k": _delta(1)}) == 1
    assert store.load_bucket("b") == {b"k": _delta(1)}


def test_corrupt_file_treated_as_empty(store):
    store.root.mkdir(parents=True)
    junk = b"this is not a database" * 64
    (store.root / "memo.sqlite").write_bytes(junk)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert store.load_bucket("b") == {}
        assert not store.is_warm()
        # the next merge moves the bad file aside and starts afresh
        assert store.merge_bucket("b", {b"k": _delta(1)}) == 1
    assert store.load_bucket("b") == {b"k": _delta(1)}
    assert store.is_warm()
    assert (store.root / "memo.sqlite.corrupt").read_bytes() == junk


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
    store.merge_bucket("b", {b"good": _delta(1)})
    _insert_raw(store, "b", b"bad", '{"l1_accesses": "many"}')
    with pytest.warns(RuntimeWarning, match="'b'"):
        assert store.load_bucket("b") == {b"good": _delta(1)}
    assert fresh_obs.counters["store.bucket_corrupt"] == 1
    # one-shot per bucket: the second read counts but stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.load_bucket("b") == {b"good": _delta(1)}
    assert fresh_obs.counters["store.bucket_corrupt"] == 2


@pytest.mark.parametrize("stats", [
    5,
    "not json",
    "[1, 2]",
    '{"l1_accesses": 1}',
    '{"l1_accesses": true, "l1_hits": 0, "l2_accesses": 0, "l2_hits": 0,'
    ' "dram_accesses": 0, "dram_row_misses": 0, "role_levels": {}}',
    '{"l1_accesses": 1, "l1_hits": 0, "l2_accesses": 0, "l2_hits": 0,'
    ' "dram_accesses": 0, "dram_row_misses": 0, "role_levels": {"r": [1]}}',
    '{"l1_accesses": 1, "l1_hits": 0, "l2_accesses": 0, "l2_hits": 0,'
    ' "dram_accesses": 0, "dram_row_misses": 0, "role_levels": {},'
    ' "cycles": 5}',
])
def test_decode_is_strict(store, fresh_obs, stats):
    store.merge_bucket("b", {b"good": _delta(1)})
    _insert_raw(store, "b", b"bad", stats)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert store.load_bucket("b") == {b"good": _delta(1)}
    assert fresh_obs.counters["store.bucket_corrupt"] == 1


class _Exploit:
    """Unpickling this creates a directory: a visible side effect."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


def test_crafted_pickle_is_never_executed(store, fresh_obs, tmp_path):
    """Loading a shared store must never run code from it: an old-style
    ``*.pkl`` bucket is ignored, and the same bytes in a row count as
    corruption instead of being unpickled."""
    marker = tmp_path / "pwned"
    payload = pickle.dumps(_Exploit(marker))
    store.merge_bucket("b", {b"good": _delta(1)})
    (store.root / "b.pkl").write_bytes(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = store.load_bucket("b")
    assert not marker.exists(), "loading the store ran code from it"
    assert list(loaded) == [b"good"]
    assert "store.bucket_corrupt" not in fresh_obs.counters

    _insert_raw(store, "b", b"evil", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert list(store.load_bucket("b")) == [b"good"]
        assert PersistentReplayMemo(store, "b").preloaded == 1
    assert not marker.exists()
    assert fresh_obs.counters["store.bucket_corrupt"] == 2


def test_version_mismatch_warns_and_counts(store, fresh_obs):
    store.merge_bucket("b", {b"k": _delta(1)})
    _set_version(store, STORE_VERSION + 1)
    with pytest.warns(RuntimeWarning, match="version"):
        assert store.load_bucket("b") == {}
    assert fresh_obs.counters["store.bucket_version_mismatch"] == 1


def test_cold_read_is_silent(store, fresh_obs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.load_bucket("never-written") == {}
        store.merge_bucket("b", {b"k": _delta(1)})
        assert store.load_bucket("never-written") == {}
    assert "store.bucket_corrupt" not in fresh_obs.counters
    assert "store.bucket_version_mismatch" not in fresh_obs.counters


# ----------------------------------------------------------------------
# concurrency: many processes, and a parent that forks after using it
# ----------------------------------------------------------------------
def _merge_worker(root, wid, n):
    s = ReplayMemoStore(root)
    for i in range(n):
        s.merge_bucket("shared", {f"w{wid}-{i}".encode(): _delta(wid * n + i)})


def test_concurrent_writers_lose_nothing(store, tmp_path):
    """Many processes merging into one bucket: every entry must survive."""
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
            assert merged[f"w{w}-{i}".encode()] == _delta(w * n_entries + i)


def _child_merges_and_loads(root, conn):
    s = ReplayMemoStore(root)
    s.merge_bucket("b", {b"child": _delta(2)})
    conn.send(sorted(s.load_bucket("b")))
    conn.close()


def test_forked_child_merges_and_loads(store):
    """The service checks the store in the parent and then forks
    workers: the child must be able to use the same store."""
    store.merge_bucket("b", {b"parent": _delta(1)})
    assert store.is_warm()
    assert list(store.load_bucket("b")) == [b"parent"]
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    proc = ctx.Process(target=_child_merges_and_loads,
                       args=(str(store.root), child_end))
    proc.start()
    assert parent_end.poll(60)
    assert parent_end.recv() == [b"child", b"parent"]
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert store.load_bucket("b") == {b"parent": _delta(1),
                                      b"child": _delta(2)}


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
        assert n == memo.misses > 0
        # nothing new learned since -> nothing written
        assert memo.flush() == 0

    def test_flush_without_fresh_entries_does_no_io(self, store,
                                                    monkeypatch):
        """A fully warm shard's flush must not touch the store."""
        memo = memo_for(store, small_config())
        self._run(memo)
        memo.flush()
        warm = memo_for(store, small_config())
        self._run(warm)
        assert warm.misses == 0
        calls = []
        for name in ("load_bucket", "merge_bucket"):
            real = getattr(ReplayMemoStore, name)
            monkeypatch.setattr(
                ReplayMemoStore, name,
                lambda self, *a, _real=real, _name=name:
                    calls.append(_name) or _real(self, *a))
        warm.flush()
        assert calls == []

    def test_scoped_buckets_are_disjoint_files(self, store):
        cfg = small_config()
        a = memo_for(store, cfg, scope="TRAF-coal")
        b = memo_for(store, cfg, scope="exp-fig12a")
        assert a.bucket != b.bucket
        self._run(a)
        a.flush()
        assert len(store.load_bucket(a.bucket)) > 0
        assert store.load_bucket(b.bucket) == {}

    def test_isinstance_of_replay_memo(self, store):
        from repro.harness.runner import ReplayMemo

        assert isinstance(memo_for(store, small_config()), ReplayMemo)
        assert isinstance(
            PersistentReplayMemo(store, "b"), ReplayMemo
        )

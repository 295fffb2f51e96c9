"""Store recovery paths, driven through the failpoint layer.

These used to be testable only by monkeypatching internals; now the
faults armed here flow through exactly the code a real failure would.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
import sqlite3
import threading
import time
import warnings

import pytest

import repro.harness.store as store_mod
import repro.obs as obs
from repro.faults import FaultSchedule, InjectedFault, ScheduleEntry
from repro.gpu.stats import KernelStats
from repro.harness.store import STORE_VERSION, ReplayMemoStore


@pytest.fixture
def store(tmp_path):
    return ReplayMemoStore(tmp_path / "store")


def _delta(n) -> KernelStats:
    return KernelStats(l2_accesses=n, l2_hits=n)


def _rows(store) -> int:
    with sqlite3.connect(str(store.path)) as conn:
        return conn.execute("SELECT COUNT(*) FROM memo").fetchone()[0]


# ----------------------------------------------------------------------
# injected faults and busy errors on the merge path are retried, never
# half-applied
# ----------------------------------------------------------------------
def test_busy_store_is_retried(store, monkeypatch):
    """A transient SQLite error (busy past the timeout, say) costs one
    retry of the whole merge transaction, not the entries."""
    real_connect = store_mod.connect
    calls = []

    def flaky(path):
        calls.append(path)
        if len(calls) == 1:
            raise sqlite3.OperationalError("database is locked")
        return real_connect(path)

    monkeypatch.setattr(store_mod, "connect", flaky)
    assert store.merge_bucket("b", {b"k": _delta(1)}) == 1
    assert len(calls) == 2
    assert store.load_bucket("b") == {b"k": _delta(1)}


def _fail_meta_read_once(monkeypatch):
    """Make the next read of ``meta`` fail the way an I/O error would:
    an OperationalError that is not "no such table"."""
    failed = []

    class FailingConnection(sqlite3.Connection):
        def execute(self, sql, *args):
            if "FROM meta" in sql and not failed:
                failed.append(sql)
                raise sqlite3.OperationalError("disk I/O error")
            return super().execute(sql, *args)

    def connect(path):
        conn = sqlite3.connect(str(path), factory=FailingConnection)
        conn.execute("PRAGMA journal_mode=WAL")
        return conn

    monkeypatch.setattr(store_mod, "connect", connect)
    return failed


def test_failed_version_read_is_retried_not_recreated(store, monkeypatch):
    """Only a missing ``meta`` table means "no store yet": any other
    error reading the version retries the merge and keeps every row."""
    store.merge_bucket("b", {b"old": _delta(0)})
    failed = _fail_meta_read_once(monkeypatch)
    assert store.merge_bucket("b", {b"new": _delta(1)}) == 1
    assert failed
    assert store.load_bucket("b") == {b"old": _delta(0), b"new": _delta(1)}


def test_unavailable_store_reads_cold_without_counting_corruption(
        store, monkeypatch):
    store.merge_bucket("b", {b"k": _delta(1)})
    reg = obs.Registry(enabled=True)
    prev = obs.set_registry(reg)
    store_mod._reset_bucket_warnings()
    try:
        _fail_meta_read_once(monkeypatch)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert store.load_bucket("b") == {}
        assert store.load_bucket("b") == {b"k": _delta(1)}
    finally:
        obs.set_registry(prev)
        store_mod._reset_bucket_warnings()
    assert "store.bucket_corrupt" not in reg.counters


def test_flush_fault_is_retried_without_torn_write(store):
    store.merge_bucket("b", {b"old": _delta(0)})
    sched = FaultSchedule(0, [ScheduleEntry("store.bucket.flush", "raise")])
    with sched.armed():
        assert store.merge_bucket("b", {b"new": _delta(1)}) == 1
    assert store.load_bucket("b") == {b"old": _delta(0), b"new": _delta(1)}
    assert _rows(store) == 2


def test_persistent_fault_surfaces_typed_error(store):
    """When retries are exhausted the caller gets the injected error
    itself -- typed, attributable -- and nothing was written."""
    sched = FaultSchedule(
        0, [ScheduleEntry("store.bucket.flush", "raise", once=False)])
    with sched.armed():
        with pytest.raises(InjectedFault) as err:
            store.merge_bucket("b", {b"k": _delta(1)})
    assert err.value.failpoint == "store.bucket.flush"
    assert obs.registry().counters.get(
        "faults.surfaced.store.bucket.flush") == 1
    assert obs.registry().counters.get(
        "faults.retried.store.bucket.flush") == 2
    assert store.load_bucket("b") == {}
    # every attempt rolled back, so the next merge starts clean
    assert store.merge_bucket("b", {b"k": _delta(1)}) == 1


def _die_mid_transaction(path):
    conn = sqlite3.connect(path)
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("INSERT INTO memo VALUES ('b', x'dead', '{}')")
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_writer_does_not_wedge_store(store):
    """A worker killed while holding the write lock releases it with
    its process, and its uncommitted rows never appear."""
    store.merge_bucket("b", {b"k": _delta(1)})
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_die_mid_transaction, args=(str(store.path),))
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode == -signal.SIGKILL
    t0 = time.monotonic()
    assert store.merge_bucket("b", {b"k2": _delta(2)}) == 1
    assert time.monotonic() - t0 < 5.0
    assert store.load_bucket("b") == {b"k": _delta(1), b"k2": _delta(2)}


# ----------------------------------------------------------------------
# corrupt reads: warn once, even under concurrent readers
# ----------------------------------------------------------------------
def test_corrupt_read_warns_once_under_concurrent_readers(store):
    store.merge_bucket("b", {b"k": _delta(1)})
    sched = FaultSchedule(
        0, [ScheduleEntry("store.bucket.read", "corrupt", arg=5,
                          once=False)])
    n_readers = 6
    barrier = threading.Barrier(n_readers)
    results = []

    def read():
        barrier.wait()
        results.append(store.load_bucket("b"))

    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        with sched.armed():
            threads = [threading.Thread(target=read)
                       for _ in range(n_readers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    assert results == [{}] * n_readers            # every read fell back
    relevant = [w for w in recorded
                if "replay-store" in str(w.message)]
    assert len(relevant) == 1                     # warned exactly once
    assert obs.registry().counters.get("store.bucket_corrupt") == n_readers
    # the on-disk row was never modified by the corrupt *reads*
    assert store.load_bucket("b") == {b"k": _delta(1)}


def test_corrupt_read_does_not_poison_next_merge(store):
    store.merge_bucket("b", {b"k": _delta(1)})
    sched = FaultSchedule(
        0, [ScheduleEntry("store.bucket.read", "corrupt", arg=9)])
    with sched.armed():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert store.load_bucket("b") == {}   # the one row mangled
        assert store.merge_bucket("b", {b"k2": _delta(2)}) == 1
    assert store.load_bucket("b") == {b"k": _delta(1), b"k2": _delta(2)}


# ----------------------------------------------------------------------
# version skew
# ----------------------------------------------------------------------
def test_version_skew_reload(store):
    store.merge_bucket("b", {b"stale": _delta(99)})
    with sqlite3.connect(str(store.path)) as conn:
        conn.execute("UPDATE meta SET value = ? WHERE key = 'version'",
                     (str(STORE_VERSION + 1),))
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        assert store.load_bucket("b") == {}       # skewed store ignored
        assert store.load_bucket("b") == {}       # and warned only once
    assert len([w for w in recorded
                if "replay-store" in str(w.message)]) == 1
    assert obs.registry().counters.get(
        "store.bucket_version_mismatch") == 2
    # the next merge recreates the store at the current version
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        store.merge_bucket("b", {b"fresh": _delta(1)})
    with sqlite3.connect(str(store.path)) as conn:
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'version'").fetchone()[0]
    assert version == str(STORE_VERSION)
    assert store.load_bucket("b") == {b"fresh": _delta(1)}

"""Store recovery paths, driven through the failpoint layer.

These used to be testable only by monkeypatching internals; now the
faults armed here flow through exactly the code a real failure would.
"""
from __future__ import annotations

import pickle
import sys
import threading
import time
import warnings

import pytest

import repro.faults as faults
import repro.obs as obs
from repro.faults import FaultSchedule, InjectedFault, ScheduleEntry
from repro.harness.store import (
    STORE_VERSION,
    ReplayMemoStore,
    _FileLock,
    _SCHEMA,
)


@pytest.fixture
def store(tmp_path):
    return ReplayMemoStore(tmp_path / "store")


def _no_tmp_files(store):
    return list(store.root.glob("*.tmp*")) == []


def _lock_free(store, bucket):
    with _FileLock(store._lock_path(bucket), timeout_s=1.0):
        return True


# ----------------------------------------------------------------------
# injected faults on the merge path are retried, never torn
# ----------------------------------------------------------------------
def test_lock_acquire_fault_is_retried(store):
    sched = FaultSchedule(0, [ScheduleEntry("store.lock.acquire", "raise")])
    with sched.armed() as armed:
        assert store.merge_bucket("b", {b"k": 1}) == 1
    assert armed.consumed() == [("store.lock.acquire", "raise")]
    assert obs.registry().counters.get(
        "faults.retried.store.lock.acquire") == 1
    assert store.load_bucket("b") == {b"k": 1}
    assert _lock_free(store, "b")


def test_flush_fault_is_retried_without_torn_write(store):
    store.merge_bucket("b", {b"old": 0})
    sched = FaultSchedule(0, [ScheduleEntry("store.bucket.flush", "raise")])
    with sched.armed():
        assert store.merge_bucket("b", {b"new": 1}) == 2
    assert store.load_bucket("b") == {b"old": 0, b"new": 1}
    assert _no_tmp_files(store)
    assert _lock_free(store, "b")


def test_replace_fault_reaps_tmp_and_retries(store):
    sched = FaultSchedule(0, [ScheduleEntry("store.bucket.replace", "raise")])
    with sched.armed():
        assert store.merge_bucket("b", {b"k": 2}) == 1
    assert store.load_bucket("b") == {b"k": 2}
    assert _no_tmp_files(store)


def test_persistent_fault_surfaces_typed_error(store):
    """When retries are exhausted the caller gets the injected error
    itself -- typed, attributable -- and the store is still clean."""
    sched = FaultSchedule(
        0, [ScheduleEntry("store.bucket.flush", "raise", once=False)])
    with sched.armed():
        with pytest.raises(InjectedFault) as err:
            store.merge_bucket("b", {b"k": 1})
    assert err.value.failpoint == "store.bucket.flush"
    assert obs.registry().counters.get(
        "faults.surfaced.store.bucket.flush") == 1
    assert obs.registry().counters.get(
        "faults.retried.store.bucket.flush") == 2
    assert _no_tmp_files(store)
    assert _lock_free(store, "b")
    assert store.load_bucket("b") == {}


# ----------------------------------------------------------------------
# corrupt reads: warn once, even under concurrent readers
# ----------------------------------------------------------------------
def test_corrupt_read_warns_once_under_concurrent_readers(store):
    store.merge_bucket("b", {b"k": 1})
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
                if "replay-store bucket" in str(w.message)]
    assert len(relevant) == 1                     # warned exactly once
    assert obs.registry().counters.get("store.bucket_corrupt") == n_readers
    # the on-disk bucket was never modified by the corrupt *reads*
    with sched.armed():
        pass                                      # disarmed again
    assert store.load_bucket("b") == {b"k": 1}


def test_corrupt_read_does_not_poison_next_merge(store):
    store.merge_bucket("b", {b"k": 1})
    sched = FaultSchedule(
        0, [ScheduleEntry("store.bucket.read", "corrupt", arg=9)])
    with sched.armed():
        # the merge's read-side sees garbage, recovers to {}, and the
        # rewrite must still land atomically
        assert store.merge_bucket("b", {b"k2": 2}) >= 1
    entries = store.load_bucket("b")
    assert entries.get(b"k2") == 2
    assert _no_tmp_files(store)


# ----------------------------------------------------------------------
# version skew
# ----------------------------------------------------------------------
def test_version_skew_reload(store):
    path = store.bucket_path("b")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        pickle.dump({"schema": _SCHEMA, "version": STORE_VERSION + 1,
                     "entries": {b"stale": 99}}, f)
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        assert store.load_bucket("b") == {}       # skewed file ignored
        assert store.load_bucket("b") == {}       # and warned only once
    assert len([w for w in recorded
                if "replay-store bucket" in str(w.message)]) == 1
    assert obs.registry().counters.get(
        "store.bucket_version_mismatch") == 2
    # the next merge rewrites the bucket at the current version
    store.merge_bucket("b", {b"fresh": 1})
    with open(path, "rb") as f:
        payload = pickle.load(f)
    assert payload["version"] == STORE_VERSION
    assert store.load_bucket("b") == {b"fresh": 1}


# ----------------------------------------------------------------------
# stale-lock break: the loser still eventually acquires
# ----------------------------------------------------------------------
def test_stale_break_loser_eventually_acquires(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "fcntl", None)   # lock-file protocol
    lock_path = tmp_path / "b.lock"
    lock_path.write_text("held by a dead process\n")
    import os
    old = time.time() - 3600
    os.utime(lock_path, (old, old))

    n = 3
    barrier = threading.Barrier(n)
    acquired = []
    order_lock = threading.Lock()

    def contend(idx):
        barrier.wait()
        with _FileLock(lock_path, timeout_s=10.0, stale_s=300.0):
            with order_lock:
                acquired.append(idx)
            time.sleep(0.01)

    threads = [threading.Thread(target=contend, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    # exactly one waiter broke the stale lock, but every contender --
    # winners and losers alike -- eventually acquired, serially
    assert sorted(acquired) == list(range(n))
    assert obs.registry().counters.get("store.stale_locks_broken") == 1
    assert not lock_path.exists()                 # released afterwards


def test_stale_break_does_not_steal_a_fresh_lock(tmp_path, monkeypatch):
    # the stat -> rename window: this waiter judged the old lock stale,
    # but before its rename another waiter broke it and took the lock
    # afresh; the rename must not leave the fresh lock broken
    import os

    lock_path = tmp_path / "b.lock"
    lock_path.write_text("held by a dead process\n")
    old = time.time() - 3600
    os.utime(lock_path, (old, old))

    real_rename = os.rename
    raced = []

    def rename_after_rival(src, dst):
        if not raced:
            raced.append(True)
            real_rename(src, tmp_path / "rival-tomb")   # rival breaks
            lock_path.write_text("rival holds the lock\n")  # and acquires
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename_after_rival)
    assert not _FileLock(lock_path, stale_s=300.0)._break_stale()
    assert lock_path.read_text() == "rival holds the lock\n"
    assert obs.registry().counters.get("store.stale_locks_broken") is None
    assert [p.name for p in tmp_path.iterdir()
            if ".stale-" in p.name] == []

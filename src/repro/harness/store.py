"""Disk-persistent replay-memo store (shared by runs and worker processes).

The in-process :class:`~repro.harness.runner.ReplayMemo` makes repeated
figure generation cheap *within* one process; this module makes it
cheap *across* processes and invocations.  Memo entries -- one
:class:`~repro.gpu.stats.KernelStats` delta per replayed wave, keyed by
the machine's chained trace hash -- are persisted to disk in per-bucket
pickle files, where a bucket names one (replay engine, GPU config)
pair.  The chained key already commits to the engine name, the cache/
DRAM geometry and the machine's entire trace history (see
``Machine._advance_chain``), so a loaded entry is exact for the run
that looks it up; the bucket split merely keeps files small and lets
unrelated configurations evolve independently.

Concurrency and durability rules:

* every read-modify-write of a bucket happens under an exclusive
  ``fcntl`` file lock (with an ``O_EXCL`` lock-file fallback when
  ``fcntl`` is unavailable), so any number of worker processes may
  merge their deltas concurrently;
* the bucket file is replaced atomically (temp file + ``os.replace``),
  so readers never observe a torn write;
* every payload carries :data:`STORE_VERSION`; a mismatching or
  corrupt file is treated as empty and rewritten -- a version bump
  invalidates stale caches instead of poisoning new runs.  The event is
  *not* silent: it bumps the ``store.bucket_corrupt`` /
  ``store.bucket_version_mismatch`` telemetry counters and warns once
  per bucket, so cache poisoning is distinguishable from a cold run.

Telemetry (see :mod:`repro.obs`): lock acquisition wait lands in the
``store.lock_wait`` span, bucket IO in ``store.bucket_load`` /
``store.bucket_merge`` / ``store.bucket_flush``.
"""
from __future__ import annotations

import itertools
import os
import pickle
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Optional

from .. import faults, obs
from ..gpu.config import GPUConfig
from ..gpu.replay import resolve_engine_name
from .runner import ReplayMemo

# Failpoints on the store's recovery seams (see DESIGN.md §5.5).  The
# write side deliberately supports no "corrupt" action: a corrupted
# *write* would leave a genuinely poisoned end state, while a corrupted
# *read* exercises the recovery path the store actually has.
faults.declare("store.lock.acquire", "raise", "delay")
faults.declare("store.bucket.read", "corrupt", "delay")
faults.declare("store.bucket.flush", "raise", "delay")
faults.declare("store.bucket.replace", "raise")

#: retries around one whole lock+read+merge+write attempt; injected
#: faults and transient IO errors are retried with jittered backoff
_MERGE_RETRY = faults.RetryPolicy(
    max_attempts=3, base_delay_s=0.01, max_delay_s=0.2,
    retry_on=(faults.FaultError, OSError, TimeoutError), seed=0,
)

#: Bump when the memo entry layout or keying scheme changes; older
#: bucket files are then ignored (and rewritten) rather than trusted.
STORE_VERSION = 1

#: Payload schema tag (sanity check that the file is ours at all).
_SCHEMA = "repro-replay-store"

#: Default store location, next to the benchmark results it accelerates.
DEFAULT_STORE_DIR = os.path.join("benchmarks", "replay_store")

#: Environment override for the store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"


def default_store_dir() -> str:
    """The store directory the CLI and benchmark suite use by default."""
    return os.environ.get(STORE_ENV_VAR, DEFAULT_STORE_DIR)


def _safe(part: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in part)


def bucket_name(config: GPUConfig, scope: Optional[str] = None) -> str:
    """Store bucket for a GPU configuration: ``<engine>__<config name>``.

    ``scope`` appends a free-form shard scope (e.g. ``TRAF-coal`` or
    ``exp-fig12a``) so hot paths load only the entries they can
    actually hit; correctness never depends on the split -- the chained
    keys are globally unique.
    """
    engine = resolve_engine_name(config)
    name = f"{engine}__{_safe(config.name)}"
    return f"{name}__{_safe(scope)}" if scope else name


class _FileLock:
    """Exclusive advisory lock guarding one bucket file.

    Uses ``fcntl.flock`` where available; otherwise falls back to an
    ``O_CREAT|O_EXCL`` lock file polled with a bounded timeout (stale
    locks older than ``stale_s`` are broken, so a killed worker cannot
    wedge the store forever).
    """

    #: per-process discriminator for stale-lock tombstone names
    _stale_seq = itertools.count()

    def __init__(self, path: Path, timeout_s: float = 30.0,
                 stale_s: float = 300.0):
        self.path = path
        self.timeout_s = timeout_s
        self.stale_s = stale_s
        self._fd: Optional[int] = None
        self._exclusive_file = False

    def _break_stale(self) -> bool:
        """Break the lock file if it has gone stale; True when *this*
        process broke it (and may immediately retry acquisition).

        The break is an ``os.rename`` to a unique tombstone name:
        rename is atomic, so when several waiters judge the same lock
        file stale, exactly one rename succeeds and only that waiter
        proceeds -- a raw ``unlink`` here would let two waiters both
        remove-and-recreate and both "hold" the lock.

        Between the stat and the rename another waiter may break the
        same stale file and take the lock afresh; the rename then moves
        that live lock instead.  The tombstone's identity is checked
        after the rename, and a live lock is linked back in place.
        """
        try:
            st = self.path.stat()
            if time.time() - st.st_mtime <= self.stale_s:
                return False
            tomb = self.path.with_name(
                f"{self.path.name}.stale-{os.getpid()}-"
                f"{next(self._stale_seq)}"
            )
            os.rename(self.path, tomb)
        except OSError:
            # vanished, already broken by someone else, or unreadable
            return False
        try:
            moved = os.stat(tomb)
        except OSError:
            return False
        if (moved.st_ino, moved.st_mtime_ns) != (st.st_ino, st.st_mtime_ns):
            try:
                os.link(tomb, self.path)
            except OSError:
                pass
            tomb.unlink(missing_ok=True)
            return False
        tomb.unlink(missing_ok=True)
        obs.count("store.stale_locks_broken")
        return True

    def __enter__(self) -> "_FileLock":
        faults.failpoint("store.lock.acquire")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            import fcntl
        except ImportError:
            fcntl = None
        if fcntl is not None:
            try:
                fd = os.open(self.path, os.O_RDWR)
                created = False
            except FileNotFoundError:
                try:
                    fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR
                    )
                    created = True
                except FileExistsError:
                    fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
                    created = False
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                # flock can fail on e.g. NFS mounts: release the fd
                # (not just leak it) and use the lock-file protocol.
                # If the file is our own creation, remove it -- a
                # fresh-mtime leftover would wedge the O_EXCL fallback
                # until it goes stale.
                os.close(fd)
                if created:
                    self.path.unlink(missing_ok=True)
            else:
                self._fd = fd
                obs.add_time("store.lock_wait", time.perf_counter() - t0)
                return self
        # portable fallback: poll exclusive creation with the shared
        # jittered backoff (replaces the old fixed 10ms spin)
        deadline = time.monotonic() + self.timeout_s
        waits = faults.RetryPolicy(
            base_delay_s=0.005, max_delay_s=0.05, seed=os.getpid(),
        ).backoff()
        while True:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR
                )
                self._exclusive_file = True
                obs.add_time("store.lock_wait", time.perf_counter() - t0)
                return self
            except FileExistsError:
                if self._break_stale():
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire store lock {self.path}"
                    )
                time.sleep(next(waits))

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            if not self._exclusive_file:
                try:
                    import fcntl

                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                except (ImportError, OSError):
                    pass
            os.close(self._fd)
            self._fd = None
        if self._exclusive_file:
            Path(self.path).unlink(missing_ok=True)
            self._exclusive_file = False


#: bucket paths already warned about this process (one-shot warnings);
#: guarded by a lock so concurrent readers of the same corrupt bucket
#: warn exactly once between them
_WARNED_BUCKETS: set = set()
_WARNED_LOCK = threading.Lock()


def _reset_bucket_warnings() -> None:
    """Re-arm the one-shot corruption warnings (test hook)."""
    with _WARNED_LOCK:
        _WARNED_BUCKETS.clear()


class ReplayMemoStore:
    """Versioned on-disk replay-memo store, safe for concurrent writers."""

    def __init__(self, root):
        self.root = Path(root)

    # ------------------------------------------------------------------
    def bucket_path(self, bucket: str) -> Path:
        return self.root / f"{bucket}.pkl"

    def _lock_path(self, bucket: str) -> Path:
        return self.root / f"{bucket}.lock"

    def _read_payload(self, path: Path) -> Dict[bytes, object]:
        """Entries of one bucket file; {} on absence/corruption/mismatch.

        Absence is a normal cold read.  Corruption and version/schema
        mismatches also read as empty (the bucket is then rewritten at
        the current version), but they bump a telemetry counter and
        warn once per bucket -- a poisoned cache after a
        :data:`STORE_VERSION` bump must not masquerade as a cold run.
        """
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            self._note_bad_bucket(path, "store.bucket_corrupt",
                                  f"unreadable ({exc!r})")
            return {}
        raw = faults.mangle("store.bucket.read", raw)
        try:
            payload = pickle.loads(raw)
        except faults.FaultError:
            raise
        except Exception as exc:
            # flipped bytes can surface as nearly any exception type
            # from the unpickler, so any failure here reads as corruption
            self._note_bad_bucket(path, "store.bucket_corrupt",
                                  f"unreadable ({exc!r})")
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != _SCHEMA
            or payload.get("version") != STORE_VERSION
        ):
            got = (payload.get("version")
                   if isinstance(payload, dict) else None)
            self._note_bad_bucket(
                path, "store.bucket_version_mismatch",
                f"schema/version mismatch (got {got!r}, "
                f"want {STORE_VERSION})",
            )
            return {}
        entries = payload.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _note_bad_bucket(self, path: Path, counter: str, why: str) -> None:
        obs.count(counter)
        with _WARNED_LOCK:
            if path in _WARNED_BUCKETS:
                return
            _WARNED_BUCKETS.add(path)
        warnings.warn(
            f"replay-store bucket {path.name!r} ignored: {why}; "
            f"treating as empty and rewriting on next merge",
            RuntimeWarning,
            stacklevel=3,
        )

    def _write_payload(self, path: Path,
                       entries: Dict[bytes, object]) -> None:
        faults.failpoint("store.bucket.flush")
        payload = {
            "schema": _SCHEMA,
            "version": STORE_VERSION,
            "written_unix": time.time(),
            "entries": entries,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            # a fault here must leave the bucket untouched AND the tmp
            # file reaped -- exactly what the except path guarantees
            faults.failpoint("store.bucket.replace")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        obs.add_time("store.bucket_flush", time.perf_counter() - t0)

    # ------------------------------------------------------------------
    def load_bucket(self, bucket: str) -> Dict[bytes, object]:
        """Load every entry of ``bucket`` (empty dict when cold)."""
        t0 = time.perf_counter()
        entries = self._read_payload(self.bucket_path(bucket))
        obs.add_time("store.bucket_load", time.perf_counter() - t0)
        return entries

    def merge_bucket(self, bucket: str,
                     entries: Dict[bytes, object]) -> int:
        """Merge ``entries`` into ``bucket`` under the bucket lock.

        Existing entries win on key collisions (keys are chained trace
        hashes, so colliding values are identical anyway).  Returns the
        entry count of the bucket after the merge.
        """
        if not entries:
            return self.size(bucket)
        path = self.bucket_path(bucket)

        def attempt() -> int:
            with _FileLock(self._lock_path(bucket)):
                current = self._read_payload(path)
                merged = dict(entries)
                merged.update(current)
                self._write_payload(path, merged)
                return len(merged)

        with obs.span("store.bucket_merge"):
            return _MERGE_RETRY.run(attempt)

    def size(self, bucket: str) -> int:
        return len(self.load_bucket(bucket))

    def buckets(self):
        """Names of every bucket present on disk."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.pkl"))

    def is_warm(self) -> bool:
        """True when any non-empty bucket file exists."""
        if not self.root.is_dir():
            return False
        return any(p.stat().st_size > 0 for p in self.root.glob("*.pkl"))

    def clear(self) -> None:
        for p in list(self.root.glob("*.pkl")) + list(self.root.glob("*.lock")):
            p.unlink(missing_ok=True)


class PersistentReplayMemo(ReplayMemo):
    """A :class:`ReplayMemo` backed by one store bucket.

    Construction preloads every persisted entry; ``flush()`` merges the
    entries learned since then back into the store.  Attach it exactly
    like the in-process memo (``Machine.set_replay_memo`` /
    ``runner.run_one(memo=...)``).
    """

    def __init__(self, store: ReplayMemoStore, bucket: str):
        super().__init__()
        self.store = store
        self.bucket = bucket
        self._store.update(store.load_bucket(bucket))
        self.preloaded = len(self._store)
        self._fresh: Dict[bytes, object] = {}

    def put(self, key: bytes, stats) -> None:
        before = len(self._store)
        super().put(key, stats)
        if len(self._store) != before:
            self._fresh[key] = stats

    def clear(self) -> None:
        super().clear()
        self._fresh.clear()

    def flush(self) -> int:
        """Persist freshly learned entries; returns the bucket size."""
        if not self._fresh:
            return self.store.size(self.bucket)
        n = self.store.merge_bucket(self.bucket, self._fresh)
        self._fresh.clear()
        return n


def memo_for(store: ReplayMemoStore, config: GPUConfig,
             scope: Optional[str] = None) -> PersistentReplayMemo:
    """Store-backed memo for runs under ``config``'s engine/geometry."""
    return PersistentReplayMemo(store, bucket_name(config, scope))

"""Disk-persistent replay-memo store, shared by runs and worker processes.

An entry is one wave's replay :class:`~repro.gpu.stats.KernelStats`
delta, keyed by the machine's chained trace hash.  The key commits to
the engine, the cache/DRAM geometry and the whole trace history, so a
hit is exact.  Entries are rows of ``memo(bucket, key, stats)`` in
``<root>/memo.sqlite``; a bucket (engine, config, scope) only lets a
shard load the entries it can hit.

* A value is JSON decoded with strict type checks: loading shared
  state never runs code.
* A merge is one ``INSERT OR IGNORE`` transaction: existing rows win,
  and concurrent writers queue on SQLite's busy timeout.
* A ``meta`` row holds :data:`STORE_VERSION`.  Another version, a file
  that is not a database, or a row that does not decode reads as
  empty, bumps ``store.bucket_version_mismatch`` /
  ``store.bucket_corrupt`` and warns once.  The next merge recreates a
  skewed store, and moves a corrupt file aside (``*.corrupt``) first.
* Every operation opens and closes its own connection: the service
  calls :meth:`ReplayMemoStore.is_warm` before it forks workers, and a
  SQLite connection must not cross a fork.
"""
from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from contextlib import closing
from pathlib import Path
from typing import Dict, Optional

from .. import faults, obs
from ..gpu.config import GPUConfig
from ..gpu.replay import resolve_engine_name
from ..gpu.stats import KernelStats
from .resultdb import connect
from .runner import ReplayMemo

# Failpoints on the store's recovery seams (see DESIGN.md §5.5): reads
# may be corrupted in flight, writes only fail (never poison the file).
faults.declare("store.bucket.read", "corrupt", "delay")
faults.declare("store.bucket.flush", "raise", "delay")

#: retries around one whole merge transaction (jittered backoff)
_MERGE_RETRY = faults.RetryPolicy(
    max_attempts=3, base_delay_s=0.01, max_delay_s=0.2,
    retry_on=(faults.FaultError, OSError, sqlite3.OperationalError),
    seed=0,
)

#: Bump when the entry layout or keying scheme changes: a store at
#: another version is then ignored and recreated, never trusted.
STORE_VERSION = 2

#: Default store location, next to the benchmark results it accelerates.
DEFAULT_STORE_DIR = os.path.join("benchmarks", "replay_store")

#: Environment override for the store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: the KernelStats counters a replay engine sets (see ``gpu.replay``);
#: a value holds exactly these plus ``role_levels``
_COUNTERS = ("l1_accesses", "l1_hits", "l2_accesses", "l2_hits",
             "dram_accesses", "dram_row_misses")
_FIELDS = frozenset(_COUNTERS + ("role_levels",))

#: replaces a store at another version (or a file with none yet)
_RECREATE = (
    "DROP TABLE IF EXISTS memo",
    "DROP TABLE IF EXISTS meta",
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE memo (bucket TEXT NOT NULL, key BLOB NOT NULL, "
    "stats TEXT NOT NULL, PRIMARY KEY (bucket, key)) WITHOUT ROWID",
    f"INSERT INTO meta VALUES ('version', '{STORE_VERSION}')",
)


def default_store_dir() -> str:
    """The store directory the CLI and benchmark suite use by default."""
    return os.environ.get(STORE_ENV_VAR, DEFAULT_STORE_DIR)


def _safe(part: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in part)


def bucket_name(config: GPUConfig, scope: Optional[str] = None) -> str:
    """Store bucket for a GPU configuration: ``<engine>__<config name>``,
    plus ``__<scope>`` for a shard scope (e.g. ``TRAF-coal``)."""
    engine = resolve_engine_name(config)
    name = f"{engine}__{_safe(config.name)}"
    return f"{name}__{_safe(scope)}" if scope else name


def _encode_stats(stats: KernelStats) -> str:
    """JSON for one replay delta: its replay counters and role levels."""
    doc = {name: int(getattr(stats, name)) for name in _COUNTERS}
    doc["role_levels"] = {role: [int(n) for n in levels]
                          for role, levels in stats.role_levels.items()}
    return json.dumps(doc, separators=(",", ":"))


def _is_corrupt(exc: sqlite3.Error) -> bool:
    """SQLITE_NOTADB / SQLITE_CORRUPT: the file, not the moment, is bad
    (busy, I/O and permission errors are not)."""
    return any(why in str(exc) for why in (
        "file is not a database", "database disk image is malformed"))


def _is_count(n) -> bool:
    return type(n) is int and n >= 0


def _decode_stats(raw: bytes) -> KernelStats:
    """Inverse of :func:`_encode_stats`; ValueError on anything else."""
    doc = json.loads(raw)
    if type(doc) is not dict or doc.keys() != _FIELDS:
        raise ValueError("not a replay delta")
    levels = doc.pop("role_levels")
    if not (all(map(_is_count, doc.values())) and type(levels) is dict
            and all(type(row) is list and len(row) == 3
                    and all(map(_is_count, row)) for row in levels.values())):
        raise ValueError("replay delta with a bad count")
    return KernelStats(**doc, role_levels=levels)


#: (store file, bucket, counter) triples already warned about in this
#: process; the lock makes concurrent readers of one bad bucket warn once
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
        self.path = self.root / "memo.sqlite"

    def _note_bad(self, counter: Optional[str], why: str,
                  bucket: Optional[str] = None) -> None:
        if counter:
            obs.count(counter)
        with _WARNED_LOCK:
            if (self.path, bucket, counter) in _WARNED_BUCKETS:
                return
            _WARNED_BUCKETS.add((self.path, bucket, counter))
        where = f" bucket {bucket!r}" if bucket is not None else ""
        warnings.warn(f"replay-store {str(self.path)!r}{where} ignored: "
                      f"{why}; treating it as empty",
                      RuntimeWarning, stacklevel=3)

    def _version_ok(self, conn) -> bool:
        """Whether the file is a store at :data:`STORE_VERSION` (a file
        no store was written to yet is, silently, not)."""
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'version'").fetchone()
        except sqlite3.OperationalError as exc:
            if not str(exc).startswith("no such"):  # busy, I/O, ...
                raise
            row = None                    # no meta table (or a foreign one)
        version = row and row[0]
        if version is not None and version != str(STORE_VERSION):
            self._note_bad("store.bucket_version_mismatch",
                           f"version {version}, want {STORE_VERSION}")
        return version == str(STORE_VERSION)

    def _select(self, sql: str, args=()) -> list:
        """Rows of ``sql``, text as bytes; [] when cold or skewed."""
        if not self.path.exists():
            return []
        with closing(connect(self.path)) as conn:
            if not self._version_ok(conn):
                return []
            conn.text_factory = bytes
            return conn.execute(sql, args).fetchall()

    # ------------------------------------------------------------------
    def load_bucket(self, bucket: str) -> Dict[bytes, KernelStats]:
        """Load every entry of ``bucket`` (empty dict when cold)."""
        t0 = time.perf_counter()
        rows = []
        try:
            rows = self._select(
                "SELECT key, stats FROM memo WHERE bucket = ?", (bucket,))
        except sqlite3.OperationalError as exc:  # not corruption: run cold
            self._note_bad(None, f"unavailable ({exc!r})")
        except sqlite3.DatabaseError as exc:
            if not _is_corrupt(exc):
                raise
            self._note_bad("store.bucket_corrupt", f"unreadable ({exc!r})")
        entries = {}
        for key, raw in rows:
            raw = faults.mangle("store.bucket.read", raw)
            try:
                if type(key) is not bytes:
                    raise ValueError(f"bad key {key!r}")
                entries[key] = _decode_stats(raw)
            except (ValueError, TypeError) as exc:
                self._note_bad("store.bucket_corrupt",
                               f"undecodable row ({exc!r})", bucket)
        obs.add_time("store.bucket_load", time.perf_counter() - t0)
        return entries

    def merge_bucket(self, bucket: str,
                     entries: Dict[bytes, KernelStats]) -> int:
        """Insert ``entries`` into ``bucket``; returns how many were new.

        Existing entries win on key collisions (keys are chained trace
        hashes, so colliding values are identical anyway).
        """
        if not entries:
            return 0
        rows = [(bucket, key, _encode_stats(stats))
                for key, stats in entries.items()]

        def attempt() -> int:
            self.root.mkdir(parents=True, exist_ok=True)
            with closing(connect(self.path)) as conn, conn:  # commit/rollback
                conn.execute("BEGIN IMMEDIATE")
                if not self._version_ok(conn):
                    for stmt in _RECREATE:
                        conn.execute(stmt)
                written = conn.executemany(
                    "INSERT OR IGNORE INTO memo VALUES (?, ?, ?)",
                    rows).rowcount
                faults.failpoint("store.bucket.flush")
            return written

        with obs.span("store.bucket_merge"):
            try:
                return _MERGE_RETRY.run(attempt)
            except sqlite3.DatabaseError as exc:
                if not _is_corrupt(exc):
                    raise
                self._note_bad("store.bucket_corrupt",
                               f"unwritable ({exc!r}); moved aside")
                self._move_aside()
                return _MERGE_RETRY.run(attempt)

    def _move_aside(self) -> None:
        """Rename a corrupt store file (and its WAL) to ``*.corrupt``
        so the next connection starts a fresh one."""
        for suffix in ("", "-wal", "-shm"):
            path = f"{self.path}{suffix}"
            try:
                os.replace(path, f"{path}.corrupt")
            except FileNotFoundError:
                pass

    def buckets(self):
        """Names of every bucket with at least one entry."""
        return [b.decode() for (b,) in self._select(
            "SELECT DISTINCT bucket FROM memo ORDER BY bucket")]

    def is_warm(self) -> bool:
        """True when the store holds any entry at the current version."""
        try:
            return bool(self._select("SELECT 1 FROM memo LIMIT 1"))
        except sqlite3.Error:
            return False


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
        """Persist freshly learned entries; returns how many were new
        to the store.  Does no store I/O when nothing is fresh."""
        if not self._fresh:
            return 0
        n = self.store.merge_bucket(self.bucket, self._fresh)
        self._fresh.clear()
        return n


def memo_for(store: ReplayMemoStore, config: GPUConfig,
             scope: Optional[str] = None) -> PersistentReplayMemo:
    """Store-backed memo for runs under ``config``'s engine/geometry."""
    return PersistentReplayMemo(store, bucket_name(config, scope))

"""SQLite-backed queryable result database for characterization runs.

Every sweep point, and every imported ``BENCH_*.json`` blob, lands in
one schema-versioned SQLite file instead of accreting ad-hoc JSON:

``runs``
    one row per sweep invocation or import (kind, spec, timestamp);
``points``
    one row per *point* -- a resolved (workload, technique, config
    knobs, scale, seed) computation -- keyed by the deterministic
    ``point_id`` (:func:`repro.canon.content_id` of the resolved point
    spec, the same canonicalization as the serving layer's
    ``job_key``).  Re-running a sweep therefore upserts, never
    duplicates, and the driver skips any point already recorded ``ok``
    (the resume invariant);
``knobs``
    the point's config overrides, one row per knob, JSON-encoded
    values so ``sweep query --where l1.size_bytes=8192`` is a lookup;
``metrics``
    flat (point_id, metric, value) rows -- every numeric counter a
    point produced -- which is what makes cross-run questions ("cycles
    vs L1 size under soa") one query;
``telemetry``
    the per-point :mod:`repro.obs` snapshot, when the producer shipped
    one.

WAL journal mode keeps concurrent readers (``sweep query`` during a
long sweep) off the writer's lock.  The schema is versioned through
``meta.schema_version``; opening a database written by a different
version fails loudly rather than misreading it.
"""
from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..canon import canon, canonical_json, content_id

#: database schema tag + version (meta table)
SCHEMA = "repro-resultdb/1"
SCHEMA_VERSION = 1

#: default database location (next to the benchmark results)
DEFAULT_DB_PATH = os.path.join("benchmarks", "results", "results.sqlite")

#: environment override for the default database path
DB_ENV_VAR = "REPRO_RESULTDB"

#: every status a point row may carry
POINT_STATUSES = ("ok", "error")

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    name         TEXT,
    spec_json    TEXT,
    source       TEXT,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    point_id     TEXT PRIMARY KEY,
    run_id       TEXT NOT NULL REFERENCES runs(run_id),
    sweep        TEXT,
    workload     TEXT,
    technique    TEXT,
    scale        REAL,
    seed         INTEGER,
    iterations   INTEGER,
    base_config  TEXT,
    spec_json    TEXT NOT NULL,
    status       TEXT NOT NULL,
    outcome      TEXT,
    attempts     INTEGER,
    wall_s       REAL,
    error        TEXT,
    created_unix REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_points_sweep ON points(sweep);
CREATE TABLE IF NOT EXISTS knobs (
    point_id TEXT NOT NULL REFERENCES points(point_id),
    knob     TEXT NOT NULL,
    value    TEXT NOT NULL,
    PRIMARY KEY (point_id, knob)
);
CREATE INDEX IF NOT EXISTS idx_knobs_knob ON knobs(knob);
CREATE TABLE IF NOT EXISTS metrics (
    point_id TEXT NOT NULL REFERENCES points(point_id),
    metric   TEXT NOT NULL,
    value    REAL NOT NULL,
    PRIMARY KEY (point_id, metric)
);
CREATE INDEX IF NOT EXISTS idx_metrics_metric ON metrics(metric);
CREATE TABLE IF NOT EXISTS telemetry (
    point_id     TEXT PRIMARY KEY REFERENCES points(point_id),
    payload_json TEXT NOT NULL
);
"""


class ResultDBError(RuntimeError):
    """The database file is unusable (wrong version, bad payload)."""


#: seconds a connection waits on another process's write lock
BUSY_TIMEOUT_S = 30.0


def default_db_path() -> str:
    """The database the CLI and sweep driver use by default."""
    return os.environ.get(DB_ENV_VAR, DEFAULT_DB_PATH)


def connect(path: Any) -> sqlite3.Connection:
    """Open a SQLite file the way every on-disk store here does.

    WAL keeps readers off the writer's lock, ``synchronous=NORMAL``
    makes a commit durable at checkpoint rather than fsync-per-commit,
    and concurrent writers queue on SQLite's busy timeout.
    """
    conn = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    except sqlite3.Error:                 # e.g. not a database
        conn.close()
        raise
    return conn


class ResultDB:
    """One characterization result database (see module docstring).

    Not thread-safe per instance; open one instance per thread/process
    (SQLite's WAL mode serializes the writers underneath).
    """

    def __init__(self, path: Any = None):
        self.path = Path(path if path is not None else default_db_path())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        self._conn.executescript(_TABLES)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema", SCHEMA))
            self._conn.commit()
        elif int(row["value"]) != SCHEMA_VERSION:
            raise ResultDBError(
                f"{self.path}: schema version {row['value']} != "
                f"supported {SCHEMA_VERSION}")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def commit(self) -> None:
        self._conn.commit()

    def rollback(self) -> None:
        self._conn.rollback()

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def begin_run(self, kind: str, name: Optional[str] = None,
                  spec: Any = None, source: Optional[str] = None,
                  commit: bool = True) -> str:
        """Record one sweep invocation / import; returns its run_id.

        With ``commit=False`` the row joins the open transaction, so it
        lands together with the points recorded after it, or not at all.
        """
        run_id = f"{kind}-{uuid.uuid4().hex[:12]}"
        self._conn.execute(
            "INSERT INTO runs (run_id, kind, name, spec_json, source, "
            "created_unix) VALUES (?, ?, ?, ?, ?, ?)",
            (run_id, kind, name,
             canonical_json(spec) if spec is not None else None,
             source, time.time()))
        if commit:
            self._conn.commit()
        return run_id

    def runs(self) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM runs ORDER BY created_unix").fetchall()
        return [dict(r) for r in rows]

    # ------------------------------------------------------------------
    # points
    # ------------------------------------------------------------------
    def record_point(
        self,
        run_id: str,
        point_id: str,
        *,
        sweep: Optional[str],
        workload: Optional[str],
        technique: Optional[str],
        scale: Optional[float],
        seed: Optional[int],
        iterations: Optional[int],
        base_config: Optional[str],
        spec: Mapping[str, Any],
        status: str,
        outcome: Optional[str] = None,
        attempts: Optional[int] = None,
        wall_s: Optional[float] = None,
        error: Optional[str] = None,
        knobs: Optional[Mapping[str, Any]] = None,
        metrics: Optional[Mapping[str, float]] = None,
        telemetry: Optional[Mapping[str, Any]] = None,
        commit: bool = True,
    ) -> None:
        """Upsert one point row (plus its knobs/metrics/telemetry).

        Re-recording the same ``point_id`` replaces the previous row --
        deterministic IDs make this idempotent, which is what lets
        importers re-run and a resumed sweep overwrite a previously
        failed point with its successful recomputation.
        """
        if status not in POINT_STATUSES:
            raise ResultDBError(f"unknown point status {status!r}")
        self._conn.execute(
            "INSERT OR REPLACE INTO points (point_id, run_id, sweep, "
            "workload, technique, scale, seed, iterations, base_config, "
            "spec_json, status, outcome, attempts, wall_s, error, "
            "created_unix) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (point_id, run_id, sweep, workload, technique, scale, seed,
             iterations, base_config, canonical_json(spec), status,
             outcome, attempts, wall_s, error, time.time()))
        self._conn.execute("DELETE FROM knobs WHERE point_id = ?",
                           (point_id,))
        for knob, value in sorted((knobs or {}).items()):
            self._conn.execute(
                "INSERT INTO knobs (point_id, knob, value) VALUES (?,?,?)",
                (point_id, knob, canonical_json(value)))
        self._conn.execute("DELETE FROM metrics WHERE point_id = ?",
                           (point_id,))
        for metric, value in sorted((metrics or {}).items()):
            if value is None:
                continue
            self._conn.execute(
                "INSERT INTO metrics (point_id, metric, value) "
                "VALUES (?,?,?)", (point_id, metric, float(value)))
        self._conn.execute("DELETE FROM telemetry WHERE point_id = ?",
                           (point_id,))
        if telemetry is not None:
            self._conn.execute(
                "INSERT INTO telemetry (point_id, payload_json) "
                "VALUES (?,?)", (point_id, json.dumps(telemetry)))
        if commit:
            self._conn.commit()

    def ok_point_ids(
        self, candidates: Optional[Iterable[str]] = None,
    ) -> set:
        """The point IDs already recorded ``ok`` (optionally filtered
        to ``candidates``) -- what the sweep driver skips on rerun."""
        rows = self._conn.execute(
            "SELECT point_id FROM points WHERE status = 'ok'").fetchall()
        ids = {r["point_id"] for r in rows}
        if candidates is not None:
            ids &= set(candidates)
        return ids

    def point_count(self, sweep: Optional[str] = None,
                    status: Optional[str] = None) -> int:
        sql = "SELECT COUNT(*) AS n FROM points WHERE 1=1"
        args: List[Any] = []
        if sweep is not None:
            sql += " AND sweep = ?"
            args.append(sweep)
        if status is not None:
            sql += " AND status = ?"
            args.append(status)
        return int(self._conn.execute(sql, args).fetchone()["n"])

    def sweeps(self) -> List[Dict[str, Any]]:
        """Per-sweep summary rows for ``repro sweep ls``."""
        rows = self._conn.execute(
            "SELECT sweep, COUNT(*) AS points, "
            "SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END) AS ok, "
            "SUM(CASE WHEN status != 'ok' THEN 1 ELSE 0 END) AS errors, "
            "MIN(created_unix) AS first_unix, "
            "MAX(created_unix) AS last_unix "
            "FROM points GROUP BY sweep ORDER BY last_unix").fetchall()
        return [dict(r) for r in rows]

    def metric_names(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT metric FROM metrics ORDER BY metric"
        ).fetchall()
        return [r["metric"] for r in rows]

    def knob_names(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT knob FROM knobs ORDER BY knob").fetchall()
        return [r["knob"] for r in rows]

    def telemetry_for(self, point_id: str) -> Optional[Dict]:
        row = self._conn.execute(
            "SELECT payload_json FROM telemetry WHERE point_id = ?",
            (point_id,)).fetchone()
        return json.loads(row["payload_json"]) if row else None

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    _POINT_COLUMNS = ("point_id", "run_id", "sweep", "workload",
                      "technique", "scale", "seed", "iterations",
                      "base_config", "status", "outcome", "attempts",
                      "wall_s", "error")

    def fetch_points(
        self,
        sweep: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        status: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Point rows with knobs and metrics attached, filtered.

        ``where`` keys may be point columns (``workload``,
        ``technique``, ``scale``, ...), knob names (``l1.size_bytes``)
        or metric names; values compare canonically (``2`` matches
        ``2.0``).  Filtering on knobs/metrics happens after the join,
        which is fine at characterization-database scale.
        """
        sql = "SELECT * FROM points WHERE 1=1"
        args: List[Any] = []
        if sweep is not None:
            sql += " AND sweep = ?"
            args.append(sweep)
        if status is not None:
            sql += " AND status = ?"
            args.append(status)
        rows = [dict(r) for r in self._conn.execute(sql, args).fetchall()]
        for row in rows:
            point_id = row["point_id"]
            row["knobs"] = {
                k["knob"]: json.loads(k["value"])
                for k in self._conn.execute(
                    "SELECT knob, value FROM knobs WHERE point_id = ?",
                    (point_id,)).fetchall()
            }
            row["metrics"] = {
                m["metric"]: m["value"]
                for m in self._conn.execute(
                    "SELECT metric, value FROM metrics WHERE point_id = ?",
                    (point_id,)).fetchall()
            }
        if where:
            rows = [r for r in rows if _matches(r, where)]
        return rows

    def query_rows(
        self,
        sweep: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        metrics: Optional[Sequence[str]] = None,
        status: Optional[str] = "ok",
    ) -> List[Dict[str, Any]]:
        """Flat export-ready rows: point columns + knobs + metrics.

        ``metrics`` restricts the metric columns (default: all).  The
        row dicts are ordered: identity columns first, then knobs, then
        metrics -- the column order ``export_rows`` preserves.
        """
        out: List[Dict[str, Any]] = []
        for row in self.fetch_points(sweep=sweep, where=where,
                                     status=status):
            flat: Dict[str, Any] = {
                "point_id": row["point_id"],
                "sweep": row["sweep"],
                "workload": row["workload"],
                "technique": row["technique"],
                "scale": row["scale"],
                "seed": row["seed"],
                "status": row["status"],
            }
            for knob, value in sorted(row["knobs"].items()):
                flat[knob] = value
            wanted = (list(metrics) if metrics
                      else sorted(row["metrics"]))
            for metric in wanted:
                if metric in row["metrics"]:
                    flat[metric] = row["metrics"][metric]
            out.append(flat)
        out.sort(key=lambda r: (str(r.get("workload")),
                                str(r.get("technique")),
                                r["point_id"]))
        return out


def _matches(row: Mapping[str, Any], where: Mapping[str, Any]) -> bool:
    for key, expected in where.items():
        if key in ResultDB._POINT_COLUMNS:
            actual = row.get(key)
        elif key in row["knobs"]:
            actual = row["knobs"][key]
        elif key in row["metrics"]:
            actual = row["metrics"][key]
        else:
            return False
        if canonical_json(canon(actual)) != canonical_json(canon(expected)):
            return False
    return True


# ----------------------------------------------------------------------
# importers: the ad-hoc BENCH_*.json formats land as runs + points
# ----------------------------------------------------------------------
#: BENCH schema tag -> importer kind
_IMPORT_KINDS = {
    "repro-selfbench/2": "bench-pipeline",
    "repro-selfbench/3": "bench-pipeline",
    "repro-loadtest/1": "bench-serve",
}

#: numeric per-run fields of a selfbench entry that become metrics
_SELFBENCH_METRICS = ("wall_s", "replay_s", "cycles", "l1_accesses",
                      "l2_accesses", "dram_accesses", "dram_row_misses",
                      "checksum")


def _import_point_id(kind: str, identity: Mapping[str, Any]) -> str:
    return content_id({"import": kind, **identity})


def _object(value: Any, where: str, required: Sequence[str] = ()) -> Dict:
    """``value`` as a JSON object holding ``required``, or ResultDBError."""
    if not isinstance(value, dict):
        raise ResultDBError(f"{where}: expected an object, got {value!r:.60}")
    missing = [f for f in required if f not in value]
    if missing:
        raise ResultDBError(f"{where}: missing {', '.join(missing)}")
    return value


def import_bench_file(db: ResultDB, path: Any) -> Dict[str, Any]:
    """Import one ``BENCH_*.json`` blob; returns an import summary.

    Dispatches on the payload's ``schema`` tag
    (``repro-selfbench/2`` and ``/3`` / ``repro-loadtest/1``).  Point
    IDs are deterministic over the entry identity, so re-importing the
    same file upserts instead of duplicating.  The run row and its
    points commit in one transaction: a malformed entry raises
    :class:`ResultDBError` and records nothing.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    schema = payload.get("schema") if isinstance(payload, dict) else None
    kind = _IMPORT_KINDS.get(schema)
    if kind is None:
        raise ResultDBError(
            f"{path}: unknown BENCH schema {schema!r} (known: "
            f"{', '.join(sorted(_IMPORT_KINDS))})")
    importer = (_import_selfbench if kind == "bench-pipeline"
                else _import_loadtest)
    run_id = db.begin_run(f"import-{kind}", name=path.name,
                          spec={"schema": schema}, source=str(path),
                          commit=False)
    try:
        n = importer(db, run_id, payload)
    except ResultDBError as exc:
        db.rollback()
        raise ResultDBError(f"{path}: {exc}") from None
    except BaseException:
        db.rollback()
        raise
    db.commit()
    return {"run_id": run_id, "kind": kind, "points": n,
            "source": str(path)}


def _import_selfbench(db: ResultDB, run_id: str, payload: Dict) -> int:
    scale = payload.get("scale")
    seed = payload.get("seed")
    config = payload.get("config")
    n = 0
    runs = payload.get("runs", [])
    if not isinstance(runs, list):
        raise ResultDBError(f"runs: expected a list, got {runs!r:.60}")
    for i, entry in enumerate(runs):
        _object(entry, f"runs[{i}]", ("workload", "technique", "engine"))
        identity = {
            "workload": entry["workload"], "technique": entry["technique"],
            "engine": entry["engine"], "scale": scale, "seed": seed,
            "config": config,
        }
        db.record_point(
            run_id, _import_point_id("bench-pipeline", identity),
            sweep="bench:pipeline",
            workload=entry["workload"], technique=entry["technique"],
            scale=scale, seed=seed, iterations=payload.get("iterations"),
            base_config=config, spec=identity, status="ok", outcome="ok",
            knobs={"engine": entry["engine"]},
            metrics={k: entry[k] for k in _SELFBENCH_METRICS
                     if isinstance(entry.get(k), (int, float))},
            commit=False,
        )
        n += 1
    return n


def _import_loadtest(db: ResultDB, run_id: str, payload: Dict) -> int:
    spec = _object(payload.get("spec", {}), "spec")
    identity = {"spec": spec, "mode": payload.get("mode"),
                "workers": payload.get("workers"),
                "requests": payload.get("requests")}
    lat = _object(payload.get("latency_s", {}), "latency_s")
    cluster = _object(payload.get("cluster") or {}, "cluster")
    db.record_point(
        run_id, _import_point_id("bench-serve", identity),
        sweep="bench:serve",
        workload=None, technique=None,
        scale=spec.get("scale"), seed=spec.get("seed"), iterations=None,
        base_config=None, spec=identity, status="ok", outcome="ok",
        wall_s=payload.get("wall_s"),
        knobs={"mode": payload.get("mode"),
               "workers": payload.get("workers"),
               "users": spec.get("users"),
               "concurrency": spec.get("concurrency")},
        metrics={
            "requests": payload.get("requests"),
            "wall_s": payload.get("wall_s"),
            "throughput_rps": payload.get("throughput_rps"),
            "latency_p50_s": lat.get("p50"),
            "latency_p95_s": lat.get("p95"),
            "latency_p99_s": lat.get("p99"),
            "latency_max_s": lat.get("max"),
            "dedup_rate": payload.get("dedup_rate"),
            "cache_hit_rate": payload.get("cache_hit_rate"),
            "shed_fraction": payload.get("shed_fraction"),
            "failed": payload.get("failed"),
            "worker_deaths": cluster.get("worker_deaths"),
            "worker_restarts": cluster.get("worker_restarts"),
        },
        commit=False,
    )
    return 1

"""SQLite result database: schema, upserts, queries, BENCH importers."""
import json

import pytest

from repro.harness.resultdb import (
    ResultDB,
    ResultDBError,
    default_db_path,
    import_bench_file,
)


@pytest.fixture
def db(tmp_path):
    with ResultDB(tmp_path / "r.sqlite") as rdb:
        yield rdb


def _record(db, run_id, pid, **over):
    kwargs = dict(
        sweep="s", workload="TRAF", technique="cuda", scale=0.05,
        seed=7, iterations=None, base_config="scaled",
        spec={"workload": "TRAF"}, status="ok", outcome="ok",
        attempts=1, wall_s=0.1, error=None,
        knobs={"num_sms": 4}, metrics={"cycles": 100.0},
        telemetry=None,
    )
    kwargs.update(over)
    db.record_point(run_id, pid, **kwargs)


def test_wal_mode_and_schema_version(db):
    mode = db._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    row = db._conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
    assert int(row["value"]) == 1


def test_version_mismatch_refused(tmp_path):
    path = tmp_path / "r.sqlite"
    with ResultDB(path) as rdb:
        rdb._conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        rdb._conn.commit()
    with pytest.raises(ResultDBError, match="schema version"):
        ResultDB(path)


def test_record_point_upserts_by_point_id(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "p1", metrics={"cycles": 100.0})
    _record(db, run, "p1", metrics={"cycles": 50.0, "tlb_walks": 3})
    points = db.fetch_points(sweep="s")
    assert len(points) == 1
    assert points[0]["metrics"] == {"cycles": 50.0, "tlb_walks": 3.0}
    # knobs/metrics tables carry exactly one generation of rows
    n = db._conn.execute("SELECT COUNT(*) AS n FROM metrics").fetchone()["n"]
    assert n == 2


def test_ok_point_ids_filters_candidates(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "good")
    _record(db, run, "bad", status="error", error="boom",
            metrics={})
    assert db.ok_point_ids() == {"good"}
    assert db.ok_point_ids({"good", "missing"}) == {"good"}
    # a failed point is not skipped on rerun, and can be overwritten
    _record(db, run, "bad")
    assert db.ok_point_ids() == {"good", "bad"}


def test_where_matches_canonically(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "p1", knobs={"num_sms": 4, "model_tlb": True})
    assert db.fetch_points(where={"num_sms": 4.0})      # int/float collapse
    assert db.fetch_points(where={"model_tlb": True})
    assert not db.fetch_points(where={"num_sms": 8})
    # where keys may also be identity columns or metrics
    assert db.fetch_points(where={"technique": "cuda"})
    assert db.fetch_points(where={"cycles": 100})
    assert not db.fetch_points(where={"no_such_key": 1})


def test_query_rows_flat_and_ordered(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "p2", workload="GOL", knobs={"num_sms": 8},
            metrics={"cycles": 5.0, "tlb_walks": 1.0})
    _record(db, run, "p1", metrics={"cycles": 9.0})
    rows = db.query_rows(sweep="s")
    assert [r["workload"] for r in rows] == ["GOL", "TRAF"]
    assert rows[0]["num_sms"] == 8
    assert rows[0]["cycles"] == 5.0
    # metric subset selection
    rows = db.query_rows(sweep="s", metrics=["tlb_walks"])
    assert "cycles" not in rows[0]


def test_sweeps_summary_counts_errors(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "p1")
    _record(db, run, "p2", status="error", error="x", metrics={})
    (summary,) = db.sweeps()
    assert summary["points"] == 2
    assert summary["ok"] == 1
    assert summary["errors"] == 1


def test_telemetry_roundtrip(db):
    run = db.begin_run("sweep", "s")
    _record(db, run, "p1", telemetry={"counters": {"x": 1}})
    assert db.telemetry_for("p1") == {"counters": {"x": 1}}
    assert db.telemetry_for("nope") is None


def test_rejects_unknown_status(db):
    run = db.begin_run("sweep", "s")
    with pytest.raises(ResultDBError, match="status"):
        _record(db, run, "p1", status="wedged")


def test_default_db_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTDB", str(tmp_path / "env.sqlite"))
    assert default_db_path() == str(tmp_path / "env.sqlite")


# ----------------------------------------------------------------------
# BENCH importers
# ----------------------------------------------------------------------
def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_import_selfbench(db, tmp_path):
    for schema in ("repro-selfbench/2", "repro-selfbench/3"):
        path = _write(tmp_path, "BENCH_pipeline.json", {
            "schema": schema,
            "scale": 0.05, "seed": 7, "config": "scaled-v100",
            "runs": [
                {"workload": "TRAF", "technique": "cuda", "engine": "numpy",
                 "wall_s": 1.5, "cycles": 100, "checksum": 3.25},
                {"workload": "TRAF", "technique": "soa", "engine": "numpy",
                 "wall_s": 1.0, "cycles": 80, "checksum": 3.25},
            ],
        })
        info = import_bench_file(db, path)
        assert info["kind"] == "bench-pipeline"
        assert info["points"] == 2
        rows = db.query_rows(sweep="bench:pipeline")
        assert {r["technique"] for r in rows} == {"cuda", "soa"}
        assert rows[0]["engine"] == "numpy"
        # re-import upserts: same deterministic IDs, no duplicates
        info2 = import_bench_file(db, path)
        assert info2["points"] == 2
        assert db.point_count(sweep="bench:pipeline") == 2


def test_import_malformed_entry_records_nothing(db, tmp_path):
    # a known schema with a bad entry is a clean error, and the run row
    # shares the points' transaction: no orphan run is left behind
    from repro.sweep.cli import sweep_cli_main

    path = _write(tmp_path, "BENCH_pipeline.json", {
        "schema": "repro-selfbench/2",
        "runs": [{"workload": "TRAF", "technique": "cuda",
                  "engine": "fused"},
                 {"engine": "fused"}],
    })
    with pytest.raises(ResultDBError, match=r"runs\[1\]: missing workload"):
        import_bench_file(db, path)
    assert db.runs() == []
    assert db.point_count() == 0

    assert sweep_cli_main(["--db", str(db.path), "import", str(path)]) == 2
    assert db.runs() == []


def test_import_rejects_unknown_schema(db, tmp_path):
    from repro.sweep.cli import sweep_cli_main

    # reports of the retired serving load benchmark are refused too
    for schema in ("nope/9", "repro-loadtest/1"):
        path = _write(tmp_path, "BENCH_weird.json", {"schema": schema})
        with pytest.raises(ResultDBError, match="unknown BENCH schema"):
            import_bench_file(db, path)
        assert sweep_cli_main(["--db", str(db.path), "import",
                               str(path)]) == 2
        assert db.runs() == []
        assert db.point_count() == 0


def test_selfbench_records_into_db(tmp_path):
    # a selfbench report is recorded through the BENCH importer, the
    # same path as 'python -m repro sweep import'
    from repro.harness.selfbench import SCHEMA, run_selfbench

    out = tmp_path / "BENCH_pipeline.json"
    report = run_selfbench(workloads=["TRAF"], techniques=("cuda",),
                           scale=0.05, output=str(out))
    assert report["schema"] == SCHEMA == "repro-selfbench/3"
    with ResultDB(tmp_path / "results.sqlite") as db:
        info = import_bench_file(db, out)
        assert info["kind"] == "bench-pipeline"
        # one point per (engine, workload, technique) run
        assert info["points"] == len(report["runs"])
        rows = db.query_rows(sweep="bench:pipeline")
        assert {r["engine"] for r in rows} == {"reference", "fused"}
        assert all(r["workload"] == "TRAF" for r in rows)


def test_selfbench_without_db_path_records_nothing(tmp_path, monkeypatch):
    # selfbench only writes its report; the result DB is never touched
    from repro.harness.selfbench import run_selfbench

    dbp = tmp_path / "results.sqlite"
    monkeypatch.setenv("REPRO_RESULTDB", str(dbp))
    out = tmp_path / "BENCH_pipeline.json"
    report = run_selfbench(workloads=["TRAF"], techniques=("cuda",),
                           scale=0.05, output=str(out))
    assert out.exists()
    assert "resultdb" not in report
    assert not dbp.exists()

"""repro.sweep: spec resolution, deterministic IDs, driver, resume, reports."""
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.faults as faults
from repro.faults import FaultSchedule, InjectedFault, ScheduleEntry
from repro.harness.resultdb import ResultDB
from repro.sweep import (
    SweepSpec,
    SweepSpecError,
    load_spec,
    pareto_report,
    run_sweep,
    sensitivity_report,
)
from repro.sweep.cli import sweep_cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC_DICT = {
    "name": "t",
    "workloads": ["TRAF"],
    "techniques": ["cuda", "soa"],
    "scale": 0.02,
    "axes": {"l1.size_bytes": [4096, 8192], "model_tlb": [True, False]},
}


# ----------------------------------------------------------------------
# spec resolution + deterministic point IDs
# ----------------------------------------------------------------------
def test_cross_product_resolution():
    points = load_spec(SPEC_DICT).resolve_points()
    assert len(points) == 8          # 2 techniques x 2 sizes x 2 tlb
    assert len({p.point_id for p in points}) == 8
    assert {p.technique for p in points} == {"cuda", "soa"}
    assert {p.knobs["l1.size_bytes"] for p in points} == {4096, 8192}


def test_point_ids_are_deterministic_and_content_addressed():
    a = load_spec(SPEC_DICT).resolve_points()
    b = load_spec(json.loads(json.dumps(SPEC_DICT))).resolve_points()
    assert [p.point_id for p in a] == [p.point_id for p in b]
    # axis declaration order does not change identities, only order
    flipped = dict(SPEC_DICT)
    flipped["axes"] = {"model_tlb": [True, False],
                      "l1.size_bytes": [4096, 8192]}
    c = load_spec(flipped).resolve_points()
    assert {p.point_id for p in c} == {p.point_id for p in a}
    # a changed knob value is a different point
    other = dict(SPEC_DICT)
    other["scale"] = 0.03
    d = load_spec(other).resolve_points()
    assert not ({p.point_id for p in d} & {p.point_id for p in a})


def test_explicit_points_and_dedup():
    spec = load_spec({
        "name": "t", "workloads": ["TRAF"], "techniques": ["cuda"],
        "scale": 0.02,
        "points": [
            {"num_sms": 8},
            {"num_sms": 8},                      # duplicate collapses
            {"technique": "soa", "num_sms": 8},  # distinct
        ],
    })
    points = spec.resolve_points()
    # 1 axis-free cross-product point + 2 distinct explicit points
    assert len(points) == 3
    assert points[1].knobs == {"num_sms": 8}
    assert points[2].technique == "soa"


def test_technique_aliases_resolve_canonically():
    base = load_spec({"name": "t", "techniques": ["typepointer"],
                      "scale": 0.02})
    alias = load_spec({"name": "t", "techniques": ["tp"], "scale": 0.02})
    try:
        a, b = base.resolve_points(), alias.resolve_points()
    except SweepSpecError:
        pytest.skip("no 'tp' alias registered")
    assert a[0].point_id == b[0].point_id


def test_spec_validation_errors():
    with pytest.raises(SweepSpecError, match="did you mean"):
        load_spec({"name": "t", "workloads": ["TRAFF"]})
    with pytest.raises(SweepSpecError, match="technique"):
        load_spec({"name": "t", "techniques": ["cudaa"]})
    with pytest.raises(SweepSpecError, match="unknown GPUConfig knob"):
        load_spec({"name": "t", "axes": {"num_smss": [2, 4]}})
    with pytest.raises(SweepSpecError, match="multiple of the line"):
        load_spec({"name": "t", "axes": {"l1.size_bytes": [1000]}})
    with pytest.raises(SweepSpecError, match="non-empty 'name'"):
        load_spec({"axes": {}})
    with pytest.raises(SweepSpecError, match="reserved"):
        load_spec({"name": "bench:mine"})
    with pytest.raises(SweepSpecError, match="unknown spec field"):
        load_spec({"name": "t", "axis": {"num_sms": [2]}})


def test_tomlish_spec_parses(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(
        '# a comment\n'
        'name = "l1"\n'
        'techniques = ["cuda", "soa"]\n'
        'scale = 0.02\n'
        '\n'
        '[axes]\n'
        '"l1.size_bytes" = [4096, 8192]\n'
        'model_tlb = [true, false]\n'
    )
    spec = load_spec(path)
    assert spec.name == "l1"
    assert spec.axes == {"l1.size_bytes": [4096, 8192],
                         "model_tlb": [True, False]}
    assert len(spec.resolve_points()) == 8


def test_json_spec_parses(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DICT))
    assert len(load_spec(path).resolve_points()) == 8


# ----------------------------------------------------------------------
# driver: end-to-end run, resume, failure isolation
# ----------------------------------------------------------------------
def _small_spec(n_sizes=2):
    return SweepSpec.from_dict({
        "name": "drv", "workloads": ["TRAF"], "techniques": ["cuda"],
        "scale": 0.02,
        "axes": {"l1.size_bytes": [4096 * (i + 1) for i in range(n_sizes)]},
    })


def test_run_sweep_records_all_points(tmp_path):
    db_path = tmp_path / "r.sqlite"
    report = run_sweep(_small_spec(), db_path, num_workers=1,
                       use_store=False)
    assert report.ok and report.computed == 2 and report.skipped == 0
    with ResultDB(db_path) as db:
        assert db.point_count(sweep="drv") == 2
        rows = db.query_rows(sweep="drv", metrics=["cycles", "wall_s"])
        assert all(r["cycles"] > 0 for r in rows)
        assert all(r["wall_s"] > 0 for r in rows)
        # knob values landed queryable
        assert {r["l1.size_bytes"] for r in rows} == {4096, 8192}


def test_rerun_skips_everything(tmp_path):
    db_path = tmp_path / "r.sqlite"
    run_sweep(_small_spec(), db_path, num_workers=1, use_store=False)
    report = run_sweep(_small_spec(), db_path, num_workers=1,
                       use_store=False)
    assert report.skipped == 2 and report.computed == 0
    with ResultDB(db_path) as db:
        assert db.point_count(sweep="drv") == 2     # row count exact


def test_aborted_sweep_resumes_without_recompute(tmp_path):
    """Crash after N commits -> rerun computes only the remainder."""
    db_path = tmp_path / "r.sqlite"
    spec = _small_spec(4)
    # abort the driver at the 3rd point-record; points 1-2 are durable
    faults.arm(FaultSchedule(0, [
        ScheduleEntry("sweep.point.record", "raise", hit=3)]))
    try:
        with pytest.raises(InjectedFault):
            run_sweep(spec, db_path, num_workers=1, use_store=False,
                      batch_size=4)
    finally:
        faults.disarm()
    with ResultDB(db_path) as db:
        done = db.ok_point_ids()
        stamps = {r["point_id"]: r["created_unix"]
                  for r in db.fetch_points(sweep="drv")}
    assert len(done) == 2

    report = run_sweep(spec, db_path, num_workers=1, use_store=False)
    assert report.skipped == 2 and report.computed == 2 and report.ok
    with ResultDB(db_path) as db:
        assert db.point_count(sweep="drv") == 4     # exact, no dupes
        after = {r["point_id"]: r["created_unix"]
                 for r in db.fetch_points(sweep="drv")}
    for pid in done:           # completed points were NOT recomputed
        assert after[pid] == stamps[pid]


def test_point_failure_is_isolated(tmp_path, monkeypatch):
    """One broken point records as error; the rest still complete."""
    import repro.sweep.driver as driver

    real = driver._service_worker

    def flaky(point, store_dir=None):
        if point.config.l1.size_bytes == 8192:
            raise RuntimeError("injected point failure")
        return real(point, store_dir)

    monkeypatch.setattr(driver, "_service_worker", flaky)
    db_path = tmp_path / "r.sqlite"
    report = run_sweep(_small_spec(), db_path, num_workers=1,
                       use_store=False)
    assert report.computed == 1 and report.failed == 1 and not report.ok
    with ResultDB(db_path) as db:
        (bad,) = db.fetch_points(sweep="drv", status="error")
        assert "injected point failure" in bad["error"]
    # the failed point is not skipped: a rerun (fault gone) retries it
    monkeypatch.setattr(driver, "_service_worker", real)
    report = run_sweep(_small_spec(), db_path, num_workers=1,
                       use_store=False)
    assert report.skipped == 1 and report.computed == 1 and report.ok


@pytest.mark.slow
def test_sigterm_mid_sweep_then_resume(tmp_path):
    """Kill a real sweep subprocess mid-run; the rerun recomputes only
    the missing points and the DB row count stays exact."""
    db_path = tmp_path / "r.sqlite"
    spec_path = tmp_path / "spec.json"
    spec_dict = {
        "name": "sig", "workloads": ["TRAF"], "techniques": ["cuda"],
        "scale": 0.02,
        "axes": {"l1.size_bytes": [4096, 8192, 16384, 32768]},
    }
    spec_path.write_text(json.dumps(spec_dict))
    child = (
        "import sys\n"
        "import repro.faults as faults\n"
        "from repro.faults import FaultSchedule, ScheduleEntry\n"
        "from repro.sweep import load_spec, run_sweep\n"
        "faults.arm(FaultSchedule(0, [ScheduleEntry("
        "'sweep.point.record', 'delay', arg=0.4, once=False)]))\n"
        "run_sweep(load_spec(sys.argv[1]), sys.argv[2], num_workers=1,\n"
        "          use_store=False, batch_size=1,\n"
        "          echo=lambda m: print(m, flush=True))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-c", child, str(spec_path), str(db_path)],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        # wait for the first batch-commit echo, then kill mid-flight
        for line in proc.stdout:
            if line.startswith("  ["):
                break
            if time.monotonic() > deadline:
                pytest.fail("sweep never made progress")
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    except BaseException:
        proc.kill()
        proc.wait(timeout=10)
        raise
    assert proc.returncode != 0     # it really was killed

    with ResultDB(db_path) as db:
        done = db.ok_point_ids()
        stamps = {r["point_id"]: r["created_unix"]
                  for r in db.fetch_points(sweep="sig")}
    assert 1 <= len(done) < 4, "SIGTERM landed too early/late"

    report = run_sweep(load_spec(spec_dict), db_path, num_workers=1,
                       use_store=False)
    assert report.skipped == len(done)
    assert report.computed == 4 - len(done)
    assert report.ok
    with ResultDB(db_path) as db:
        assert db.point_count(sweep="sig") == 4      # exact row count
        after = {r["point_id"]: r["created_unix"]
                 for r in db.fetch_points(sweep="sig")}
    for pid in done:               # zero recompute of completed points
        assert after[pid] == stamps[pid]


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@pytest.fixture
def seeded_db(tmp_path):
    """A hand-built database: cycles halve as l1 doubles, dram flat."""
    with ResultDB(tmp_path / "r.sqlite") as db:
        run = db.begin_run("sweep", "s")
        grid = [
            ("cuda", 4096, 400.0, 100.0),
            ("cuda", 8192, 200.0, 100.0),
            ("soa", 4096, 300.0, 80.0),
            ("soa", 8192, 150.0, 120.0),
        ]
        for tech, l1, cycles, dram in grid:
            db.record_point(
                run, f"{tech}-{l1}", sweep="s", workload="TRAF",
                technique=tech, scale=0.05, seed=7, iterations=None,
                base_config="scaled", spec={}, status="ok", outcome="ok",
                knobs={"l1.size_bytes": l1},
                metrics={"cycles": cycles, "dram_accesses": dram})
        yield db


def test_sensitivity_report(seeded_db):
    rep = sensitivity_report(seeded_db, "l1.size_bytes", "cycles",
                             sweep="s")
    assert rep.values == [4096, 8192]
    by_tech = {r["technique"]: r for r in rep.rows}
    assert by_tech["cuda"]["cells"] == {"4096": 400.0, "8192": 200.0}
    assert by_tech["cuda"]["ratio"] == pytest.approx(2.0)
    text = rep.render()
    assert "l1.size_bytes=4096" in text and "cuda" in text


def test_sensitivity_over_identity_column(seeded_db):
    rep = sensitivity_report(seeded_db, "technique", "cycles", sweep="s")
    assert set(rep.values) == {"cuda", "soa"}


def test_pareto_report(seeded_db):
    rep = pareto_report(seeded_db, ["cycles", "dram_accesses"], sweep="s")
    ids = {r["point_id"] for r in rep.frontier}
    # cuda@4096 (400,100) is dominated by cuda@8192 (200,100);
    # the other three points trade cycles against dram traffic
    assert ids == {"cuda-8192", "soa-4096", "soa-8192"}
    assert rep.dominated == 1
    assert "1 dominated" in rep.render()


def test_pareto_maximize_flips_axis(seeded_db):
    rep = pareto_report(seeded_db, ["cycles", "dram_accesses"],
                        maximize=["dram_accesses"], sweep="s")
    ids = {r["point_id"] for r in rep.frontier}
    assert "soa-8192" in ids        # best cycles AND best (max) dram
    with pytest.raises(ValueError, match="at least two"):
        pareto_report(seeded_db, ["cycles"], sweep="s")
    with pytest.raises(ValueError, match="maximize"):
        pareto_report(seeded_db, ["cycles", "dram_accesses"],
                      maximize=["nope"], sweep="s")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_run_query_report(tmp_path, capsys):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(SPEC_DICT))
    db = str(tmp_path / "r.sqlite")

    assert sweep_cli_main(["--db", db, "run", str(spec_path),
                           "--dry-run"]) == 0
    assert "(8 points)" in capsys.readouterr().out

    assert sweep_cli_main(["--db", db, "run", str(spec_path),
                           "--workers", "1", "--no-store"]) == 0
    out = capsys.readouterr().out
    assert "8 computed, 0 failed" in out

    assert sweep_cli_main(["--db", db, "ls"]) == 0
    assert "8 points (8 ok" in capsys.readouterr().out

    assert sweep_cli_main(["--db", db, "query", "--sweep", "t",
                           "--where", "technique=soa",
                           "--metrics", "cycles"]) == 0
    out = capsys.readouterr().out
    assert "soa" in out and "cuda" not in out

    csv_path = tmp_path / "rows.csv"
    assert sweep_cli_main(["--db", db, "query", "--sweep", "t",
                           "--metrics", "cycles",
                           "--output", str(csv_path)]) == 0
    capsys.readouterr()
    header = csv_path.read_text().splitlines()[0]
    assert "point_id" in header and "cycles" in header

    assert sweep_cli_main(["--db", db, "report", "sensitivity",
                           "--knob", "l1.size_bytes",
                           "--metric", "l1_hit_rate"]) == 0
    assert "sensitivity" in capsys.readouterr().out

    assert sweep_cli_main(["--db", db, "report", "pareto",
                           "--metrics", "cycles,dram_accesses"]) == 0
    assert "pareto frontier" in capsys.readouterr().out


def test_cli_bad_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"name": "x",
                                     "axes": {"num_smss": [1]}}))
    assert sweep_cli_main(["--db", str(tmp_path / "r.sqlite"),
                           "run", str(spec_path)]) == 2
    assert "did you mean" in capsys.readouterr().err


def test_main_routes_sweep(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_RESULTDB", str(tmp_path / "r.sqlite"))
    assert main(["sweep", "ls"]) == 0
    assert "no sweeps" in capsys.readouterr().out


def test_main_config_override(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fig6", "--config", "num_smss=4"])
    assert excinfo.value.code == 2
    assert "did you mean" in capsys.readouterr().err

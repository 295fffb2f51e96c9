"""Tests for the ``python -m repro`` command-line interface."""
import json

import pytest

from repro import obs
from repro.__main__ import EXPERIMENTS, main
from repro.harness.registry import experiment_names


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_disasm(capsys):
    assert main(["disasm", "typepointer"]) == 0
    out = capsys.readouterr().out
    assert "SHR" in out and "CALL" in out


def test_disasm_concord(capsys):
    assert main(["disasm", "concord"]) == 0
    assert "CALL" not in capsys.readouterr().out


def test_kernel_unknown_technique_exits_2_with_hint(capsys):
    # a bad --techniques entry dies in argparse with a did-you-mean,
    # before any machine is built or the program file is read
    with pytest.raises(SystemExit) as excinfo:
        main(["kernel", "examples/user_kernel.py", "--techniques", "sooa"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown technique 'sooa'" in err
    assert "did you mean" in err and "soa" in err


def test_fuzz_unknown_technique_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "1", "--techniques", "cuda,bogus"])
    assert excinfo.value.code == 2
    assert "unknown technique 'bogus'" in capsys.readouterr().err


def test_disasm_soa(capsys):
    # soa reuses the embedded-vTable lowering (and is a valid target)
    assert main(["disasm", "soa"]) == 0
    out = capsys.readouterr().out
    assert "CALL" in out


def test_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["figZZZ"])


def test_unknown_experiment_exits_2_with_hint(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig66"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig66'" in err
    assert "did you mean" in err and "fig6" in err


@pytest.mark.parametrize("args", [
    ["all", "--workers", "0"],
    ["all", "--workers", "-2"],
    ["all", "--workers", "three"],
    ["all", "--timeout", "0"],
    ["all", "--timeout", "-1.5"],
])
def test_invalid_workers_and_timeout_rejected(capsys, args):
    # nonsense resource knobs die in argparse (exit 2), not deep in the
    # service with a confusing traceback
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be a positive" in err or "expected a positive" in err


@pytest.mark.parametrize("args", [
    ["serve", "--workers", "0"],
    ["serve", "--queue-limit", "0"],
    ["serve", "--drain-grace", "-1"],
    ["submit", "fig6", "--scale", "0"],
])
def test_serve_cli_validates_knobs(capsys, args):
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 2


def test_submit_unknown_experiment_exits_2_locally(capsys):
    # the client CLI rejects a bad id (with a hint) before connecting
    with pytest.raises(SystemExit) as excinfo:
        main(["submit", "fig66", "--socket", "/nonexistent.sock"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "did you mean" in err and "fig6" in err


def test_submit_without_daemon_fails_cleanly(capsys):
    assert main(["submit", "fig6",
                 "--socket", "/nonexistent/serve.sock"]) == 1
    assert "submit failed" in capsys.readouterr().err


def test_unknown_replay_engine_config_exits_2_with_hint(capsys):
    # a typo'd engine dies in argparse with a did-you-mean, before any
    # experiment dispatch
    with pytest.raises(SystemExit) as excinfo:
        main(["list", "--config", "replay_engine=fussed"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown replay engine 'fussed'" in err
    assert "did you mean" in err and "fused" in err


def test_unknown_replay_engine_env_exits_2_with_hint(capsys, monkeypatch):
    # the env override goes through the same validation as --config
    monkeypatch.setenv("REPRO_REPLAY_ENGINE", "fusd")
    with pytest.raises(SystemExit) as excinfo:
        main(["list"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown replay engine 'fusd'" in err
    assert "did you mean" in err and "fused" in err


def test_valid_replay_engine_config_accepted(capsys):
    assert main(["list", "--config", "replay_engine=fused"]) == 0


@pytest.mark.parametrize("source", ["config", "env"])
def test_removed_vector_engine_exits_2(source, capsys, monkeypatch):
    # the retired engine name is an UnknownEngineError like any typo,
    # not a silent fallback to the default engine
    argv = ["list"]
    if source == "config":
        argv += ["--config", "replay_engine=vector"]
    else:
        monkeypatch.setenv("REPRO_REPLAY_ENGINE", "vector")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert ("unknown replay engine 'vector'; "
            "known engines: reference, fused") in err


def test_status_without_daemon_fails_cleanly(capsys):
    assert main(["status", "--socket", "/nonexistent/serve.sock"]) == 1
    assert "status failed" in capsys.readouterr().err


def test_small_experiment_runs(capsys):
    assert main(["fig1", "--scale", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1b" in out
    assert "load vTable*" in out


def test_init_experiment(capsys):
    assert main(["init"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_experiment_registry_complete():
    # every paper table/figure id has a CLI entry
    for required in ("fig1", "table1", "table2", "fig6", "fig7", "fig8",
                     "fig9", "fig10", "fig11", "fig12a", "fig12b", "init",
                     "kernel"):
        assert required in EXPERIMENTS


def test_experiments_dict_mirrors_registry():
    # the compat dict is a view over the registry, same names same order
    assert tuple(EXPERIMENTS) == experiment_names()


def test_compat_experiments_dict_runs():
    result = EXPERIMENTS["init"](0.05)
    assert result.speedup > 1


@pytest.mark.parametrize("name", ["fig12a", "fig12b", "table1"])
def test_quick_flag_shrinks_self_sized_experiments(capsys, name):
    # --quick applies SMOKE_PARAMS, so these finish in seconds
    assert main([name, "--quick", "--scale", "0.04"]) == 0
    assert capsys.readouterr().out.strip()


def test_workloads_flag_restricts_sweep(capsys):
    assert main(["table2", "--scale", "0.04", "--workloads", "TRAF"]) == 0
    out = capsys.readouterr().out
    assert "TRAF" in out
    assert "GOL" not in out


def test_profile_subcommand(capsys):
    assert main(["profile", "TRAF", "--technique", "coal",
                 "--scale", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "profile: TRAF under coal" in out


def test_fuzz_subcommand(capsys):
    assert main(["fuzz", "3"]) == 0
    assert "fuzzed 3 programs" in capsys.readouterr().out


def test_all_serial_no_store(capsys, tmp_path):
    # the full suite through the service, in-process, storeless
    manifest = tmp_path / "manifest.json"
    assert main([
        "all", "--serial", "--no-store", "--quick",
        "--scale", "0.04", "--workloads", "TRAF",
        "--manifest", str(manifest),
    ]) == 0
    out = capsys.readouterr().out
    for name in experiment_names():
        assert name in EXPERIMENTS  # rendered below in registry order
    assert "Figure 6" in out and "speedup" in out
    m = json.loads(manifest.read_text())
    assert m["mode"] == "serial"
    assert m["store"]["enabled"] is False
    assert m["totals"]["shards"] == len(m["shards"]) > 0


def test_all_parallel_with_store(capsys, tmp_path):
    # two workers + a store in a temp dir; manifest says parallel
    manifest = tmp_path / "manifest.json"
    assert main([
        "all", "--workers", "2", "--quick",
        "--scale", "0.04", "--workloads", "TRAF",
        "--store-dir", str(tmp_path / "store"),
        "--manifest", str(manifest),
    ]) == 0
    m = json.loads(manifest.read_text())
    assert m["mode"] == "parallel"
    assert m["num_workers"] == 2
    assert m["store"]["enabled"] is True
    outcomes = set(m["totals"]["outcomes"])
    assert outcomes <= {"ok", "retried"}


def test_all_telemetry_covers_every_layer(capsys, tmp_path):
    # --telemetry dumps one merged registry; worker spans and counters
    # from machine, service and store all land in it
    telemetry = tmp_path / "telemetry.json"
    assert main([
        "all", "--workers", "2", "--quick",
        "--scale", "0.04", "--workloads", "TRAF",
        "--store-dir", str(tmp_path / "store"),
        "--manifest", str(tmp_path / "manifest.json"),
        "--telemetry", str(telemetry),
    ]) == 0
    assert f"[telemetry: {telemetry}]" in capsys.readouterr().out
    payload = json.loads(telemetry.read_text())
    obs.validate_payload(payload)
    counters = payload["counters"]
    assert counters["machine.launches"] > 0
    assert counters["service.shards_ok"] > 0
    assert counters.get("store.bucket_corrupt", 0) == 0
    def names(spans):
        for s in spans:
            yield s["name"]
            yield from names(s["children"])

    span_names = set(names(payload["spans"]))
    assert "service.run" in span_names
    assert any(n.startswith("service.shard.") for n in span_names)
    # worker-side machine spans ride inside their shard span
    assert "machine.launch" in span_names
    # and the same payload is embedded in the run manifest
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["telemetry"]["counters"] == counters


def test_all_serial_telemetry_dump(capsys, tmp_path):
    # serial + storeless still produces a valid registry (no service
    # worker counters, but the machine layer is there)
    telemetry = tmp_path / "telemetry.json"
    assert main([
        "all", "--serial", "--no-store", "--quick",
        "--scale", "0.04", "--workloads", "TRAF",
        "--manifest", str(tmp_path / "manifest.json"),
        "--telemetry", str(telemetry),
    ]) == 0
    payload = json.loads(telemetry.read_text())
    obs.validate_payload(payload)
    assert payload["counters"]["machine.launches"] > 0
    assert payload["counters"]["service.shards_ok"] > 0


def test_profile_experiment_renders_span_tree(capsys):
    # 'profile <experiment>' runs it under a fresh registry and prints
    # the nvtop-style span tree alongside the experiment's own render
    from repro.harness import runner

    runner.clear_cache()  # a warm cache would leave nothing to profile
    assert main(["profile", "fig1", "--scale", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1b" in out
    assert "telemetry: fig1" in out
    assert "machine.launch" in out
    assert "machine.launches" in out


@pytest.mark.parametrize("target", ["service", "serve"])
def test_selfbench_targets_exit_2_with_hint(target, capsys, monkeypatch,
                                            tmp_path):
    # selfbench is only the engine gate: a target is refused before any
    # benchmark, service or cluster starts
    from repro.harness.service import ExperimentService
    from repro.serve import loadtest

    def must_not_run(*args, **kwargs):
        raise AssertionError("a retired benchmark started")

    monkeypatch.setattr(ExperimentService, "run", must_not_run)
    monkeypatch.setattr(loadtest, "run_loadtest", must_not_run)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["selfbench", target, "--scale", "0.04"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "perfbench/run.py --workload all-cold|all-warm" in err
    assert "repro loadtest" in err
    assert list(tmp_path.iterdir()) == []

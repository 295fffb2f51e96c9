"""Tests of the benchmark itself (not of the simulator).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced at a tiny scale; the
runs are shared between tests.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY = 0.005
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_RUNS = {}


def invoke(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", str(TINY), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(workload, trace):
    key = (workload, trace)
    if key not in _RUNS:
        proc = invoke(workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_spec_matches_the_metrics_the_benchmark_knows():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_self_times_fit_in_traced_wall(workload):
    metrics = result_of(workload, 1)["metrics"]
    workers = 1 if workload == "cells" else len(os.sched_getaffinity(0))
    assert metrics["layers.self_sum_s"]["value"] \
        <= workers * metrics["traced_wall_s"]["value"]
    assert metrics["executor.capture_s"]["value"] > 0
    if workload == "cells":
        assert metrics["service.shards"]["value"] == 0
        assert metrics["store.load_s"]["value"] == 0
    else:
        assert metrics["service.shards"]["value"] > 0


def test_corrupted_expected_digest_is_a_failure(tmp_path):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(
        {"scale": TINY, "cells": {"1": {"records_digest": "0" * 64}}}))
    proc = invoke("cells", 0, "--expected", str(expected))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "committed expectation" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("cells", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

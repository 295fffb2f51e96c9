"""Benchmark-suite configuration.

Each benchmark regenerates one paper table/figure via the harness,
asserts the paper's qualitative shape, and writes the rendered table
to ``benchmarks/results/<id>.txt`` (EXPERIMENTS.md quotes these).

The (workload x technique) sweep is shared through the harness
runner's in-process cache, so the first figure pays for the sweep and
the rest reuse it; pedantic single-round timing keeps pytest-benchmark
from re-running multi-minute sweeps.

The suite additionally rides the experiment service:

* every in-process run is pointed at the disk-persistent replay store
  (``benchmarks/replay_store`` or ``$REPRO_STORE_DIR``), so a second
  benchmark invocation replays almost nothing;
* set ``REPRO_BENCH_WORKERS=N`` (N > 0) to precompute the registry's
  sweep cells (its ``run_one`` points) on N worker processes before the
  benchmarks start -- the figures then tabulate against the warm cache,
  bit-identically;
* a run manifest for the warm-up shards lands in
  ``benchmarks/results/bench_manifest.json``.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.harness.registry import (
    ExperimentOptions,
    experiment_names,
    get_experiment,
)
from repro.harness.runner import missing_points
from repro.harness.service import ExperimentService

RESULTS_DIR = Path(__file__).parent / "results"

#: scale the benchmark sweeps run at (fraction of nominal workload size)
BENCH_SCALE = 0.25

#: worker processes for the pre-benchmark sweep warm-up (0 = in-process)
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))

#: set REPRO_BENCH_NO_STORE=1 to run the suite without the replay store
_USE_STORE = os.environ.get("REPRO_BENCH_NO_STORE", "") != "1"


def save_result(figure_id: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session", autouse=True)
def experiment_service():
    """Back the whole benchmark session with the experiment service.

    Installs the store-backed replay memo for every in-process run and,
    when ``REPRO_BENCH_WORKERS`` asks for it, shards the sweep across
    worker processes up front so the figure benchmarks measure
    tabulation against a warm cache.
    """
    service = ExperimentService(
        num_workers=max(1, BENCH_WORKERS), use_store=_USE_STORE,
    )
    restore = service.install_store_memo()
    try:
        if BENCH_WORKERS > 0:
            options = ExperimentOptions(scale=BENCH_SCALE)
            warm = service.store.is_warm() if service.store else False
            cells = [p for name in experiment_names()
                     for p in get_experiment(name).points(options)
                     if p.is_cell]
            t0 = time.perf_counter()
            done = service.run_points(missing_points(cells))
            reports = [report for _, report in done.values()]
            RESULTS_DIR.mkdir(exist_ok=True)
            ExperimentService.write_manifest(
                RESULTS_DIR / "bench_manifest.json",
                service.manifest(
                    ["<sweep cells>"], options, reports,
                    time.perf_counter() - t0, warm,
                ),
            )
        yield service
    finally:
        restore()


@pytest.fixture
def bench_once(benchmark):
    """Run a harness callable exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return run

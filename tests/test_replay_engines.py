"""Cross-validation of the replay engines.

The ReferenceEngine is the executable specification (the dict-based
SectoredCache hierarchy); the FusedEngine must be *bit-identical* to it
on every counter, across dispatch strategies, workloads and random
access streams.  The differential matrix below runs every registered
technique against every workload under both engines and compares whole
KernelStats records, not checksums.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LaunchError, UnknownEngineError
from repro.gpu.cache import MemoryHierarchy
from repro.gpu.config import CacheGeometry, GPUConfig, small_config
from repro.gpu.machine import Machine
from repro.gpu.replay import (
    ENGINE_ENV_VAR,
    ENGINES,
    FusedEngine,
    ReferenceEngine,
    make_engine,
    resolve_engine_name,
)
from repro.gpu.stats import KernelStats
from repro.gpu.trace import MemoryTrace, role_id
from repro.techniques import available as all_techniques
from repro.workloads import make_workload, workload_names


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def test_default_engine_is_fused():
    assert GPUConfig().replay_engine == "fused"


def test_engines_registry_names():
    assert ENGINES == ("reference", "fused")


def test_resolve_engine_prefers_env(monkeypatch):
    cfg = replace(small_config(), replay_engine="fused")
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    assert resolve_engine_name(cfg) == "reference"
    monkeypatch.delenv(ENGINE_ENV_VAR)
    assert resolve_engine_name(cfg) == "fused"


def test_resolve_engine_rejects_unknown(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "warp-drive")
    with pytest.raises(LaunchError):
        resolve_engine_name(small_config())


def test_resolve_engine_unknown_carries_hints(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "fussed")
    with pytest.raises(UnknownEngineError) as excinfo:
        resolve_engine_name(small_config())
    err = excinfo.value
    assert err.engine == "fussed"
    assert err.known == ENGINES
    assert "fused" in err.hints
    assert "did you mean" in str(err)


def test_make_engine_constructs_named_engines():
    cfg = small_config()
    hier = MemoryHierarchy(cfg)
    assert isinstance(make_engine("reference", cfg, hier), ReferenceEngine)
    assert isinstance(make_engine("fused", cfg, hier), FusedEngine)
    with pytest.raises(UnknownEngineError) as excinfo:
        make_engine("fusd", cfg, hier)
    assert "fused" in excinfo.value.hints
    with pytest.raises(UnknownEngineError):
        make_engine("vector", cfg, hier)  # retired, not an alias
    # UnknownEngineError subclasses LaunchError: existing callers that
    # catch the broad class keep working
    assert isinstance(excinfo.value, LaunchError)


def test_machine_respects_config_engine():
    for name in ENGINES:
        m = Machine("cuda", config=replace(small_config(),
                                           replay_engine=name))
        assert m.engine.name == name


# ----------------------------------------------------------------------
# differential matrix: every technique x every workload x both engines,
# whole-KernelStats equality
# ----------------------------------------------------------------------
def _run(workload: str, technique: str, engine: str):
    cfg = replace(small_config(), replay_engine=engine)
    m = Machine(technique, config=cfg)
    wl = make_workload(workload, m, scale=0.1, seed=3)
    return wl.run(1), wl.checksum()


@pytest.mark.parametrize("technique", all_techniques())
@pytest.mark.parametrize("workload", workload_names())
def test_engines_bit_identical_on_workloads(workload, technique):
    ref_stats, ref_ck = _run(workload, technique, "reference")
    fus_stats, fus_ck = _run(workload, technique, "fused")
    # KernelStats is a dataclass: == covers every counter, including the
    # per-role dicts and the timing-model outputs derived from them
    assert fus_stats == ref_stats
    assert fus_ck == ref_ck


@pytest.mark.parametrize(
    "engine", [e for e in ENGINES if e != "reference"])
def test_engines_bit_identical_under_object_churn(engine):
    # GOL retypes objects between launches: allocator reuse stresses
    # cache-state carry-over across waves and launches
    ref_stats, _ = _run("GOL", "typepointer", "reference")
    eng_stats, _ = _run("GOL", "typepointer", engine)
    assert eng_stats == ref_stats


# repeated waves: fixpoint loops replay the same traffic against
# evolved cache state
# ----------------------------------------------------------------------
def _captured_waves(workload: str, technique: str, scale: float = 0.1):
    """Run a workload, capturing its raw waves."""
    m = Machine(technique, config=small_config())
    waves = []
    inner = m.engine.replay_wave

    def capture(traces, stats):
        waves.append(list(traces))
        inner(traces, stats)

    m.engine.replay_wave = capture
    wl = make_workload(workload, m, scale=scale, seed=3)
    wl.run(1)
    return waves


def test_fused_repeated_stream_bit_identical():
    cfg = small_config()
    waves = _captured_waves("BFS-vE", "cuda")
    # replay the stream twice through ONE engine each: the second pass
    # meets the same traffic against the state the first pass left
    ref, fus = ReferenceEngine(MemoryHierarchy(cfg)), FusedEngine(cfg)
    rs, fs = KernelStats(), KernelStats()
    for _ in range(2):
        for traces in waves:
            ref.replay_wave(traces, rs)
            fus.replay_wave(traces, fs)
    assert fs == rs
    assert fus.dram_row_hits == ref.hierarchy.dram_row_hits
    assert fus._open_rows == ref.hierarchy._open_rows


# ----------------------------------------------------------------------
# property test: random access streams, both engines in lockstep
# ----------------------------------------------------------------------
#: tiny geometry so evictions and row conflicts happen within a handful
#: of accesses (L1: 8 lines in 4 sets; L2: 32 lines in 16 sets)
_PROP_CFG = GPUConfig(
    name="prop-gpu",
    num_sms=2,
    l1=CacheGeometry(size_bytes=1024, assoc=2),
    l2=CacheGeometry(size_bytes=4096, assoc=2),
    dram_row_bytes=512,
    dram_num_banks=2,
)

_access = st.tuples(
    st.integers(min_value=0, max_value=31),        # line index
    st.integers(min_value=1, max_value=15),        # sector mask
    st.booleans(),                                 # store?
    st.sampled_from([None, "vtable", "vfunc"]),    # role
)
_warp = st.lists(_access, min_size=0, max_size=16)


def _build_trace(sm: int, accs) -> MemoryTrace:
    t = MemoryTrace(sm=sm)
    for line_idx, mask, store, role in accs:
        base = line_idx * 128
        addrs = [base + s * 32 for s in range(4) if mask & (1 << s)]
        t.append_access(np.asarray(addrs, dtype=np.uint64), 1, store,
                        role_id(role))
    return t.finalize()


@given(waves=st.lists(st.lists(_warp, min_size=1, max_size=4),
                      min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_random_streams_bit_identical(waves):
    ref = ReferenceEngine(MemoryHierarchy(_PROP_CFG))
    fus = FusedEngine(_PROP_CFG)
    ref_stats, fus_stats = KernelStats(), KernelStats()
    for wave in waves:
        traces = [_build_trace(w % _PROP_CFG.num_sms, accs)
                  for w, accs in enumerate(wave)]
        # engines replay the same frozen traces; state persists across
        # waves in both (caches are not flushed between kernels)
        ref.replay_wave(traces, ref_stats)
        fus.replay_wave(traces, fus_stats)
    assert fus_stats == ref_stats
    # row-buffer state must agree too, not just the counters so far
    assert fus.dram_row_hits == ref.hierarchy.dram_row_hits
    assert fus._open_rows == ref.hierarchy._open_rows

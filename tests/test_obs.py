"""Tests for repro.obs: spans, counters, merging, validation."""
import json
import time

import pytest

from repro import obs


@pytest.fixture
def reg():
    """A fresh registry installed as the process-wide one."""
    fresh = obs.Registry()
    prev = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(prev)


class TestCounters:
    def test_count_accumulates(self, reg):
        obs.count("a.b")
        obs.count("a.b", 4)
        assert reg.counters == {"a.b": 5}


class TestSpans:
    def test_nesting_aggregates(self, reg):
        for _ in range(3):
            with obs.span("outer"):
                time.sleep(0.001)
                with obs.span("inner"):
                    pass
        outer = reg.root.children["outer"]
        assert outer.count == 3
        assert "inner" in outer.children
        inner = outer.children["inner"]
        assert inner.count == 3
        # children can never outlast their parent
        assert inner.total_s <= outer.total_s

    def test_add_time_lands_under_current_span(self, reg):
        with obs.span("outer"):
            obs.add_time("phase", 0.25, count=7)
        phase = reg.root.children["outer"].children["phase"]
        assert phase.count == 7
        assert phase.total_s == pytest.approx(0.25)

    def test_add_root_time_ignores_the_open_span(self, reg):
        # cross-thread reporters (serve job callbacks) must not nest
        # under whatever span the owning thread happens to have open:
        # their wall time overlaps it and would break children <= parent
        with obs.span("outer"):
            obs.add_root_time("job", 99.0)
        assert "job" not in reg.root.children["outer"].children
        job = reg.root.children["job"]
        assert job.count == 1
        assert job.total_s == pytest.approx(99.0)
        obs.validate_payload(reg.to_dict())

    def test_exception_still_pops_the_stack(self, reg):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert reg._stack == [reg.root]
        assert reg.root.children["boom"].count == 1


class TestSerialization:
    def test_roundtrip_is_json_safe(self, reg):
        with obs.span("a"):
            with obs.span("b"):
                pass
        obs.count("c", 2)
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["schema"] == obs.SCHEMA
        obs.validate_payload(payload)
        other = obs.Registry()
        other.merge_dict(payload)
        assert other.counters == {"c": 2}
        assert other.root.children["a"].children["b"].count == 1

    def test_merge_sums_counts_and_times(self, reg):
        with obs.span("a"):
            t0 = time.perf_counter()
            time.sleep(0.002)
            obs.add_time("b", time.perf_counter() - t0, count=2)
        payload = reg.to_dict()
        merged = obs.merge_payloads([payload, payload, None])
        obs.validate_payload(merged)
        a = next(s for s in merged["spans"] if s["name"] == "a")
        b = a["children"][0]
        assert a["count"] == 2
        assert b["count"] == 4
        assert b["total_s"] == pytest.approx(
            2 * payload["spans"][0]["children"][0]["total_s"])

    def test_validate_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            obs.validate_payload(
                {"schema": obs.SCHEMA, "counters": {"x": -1}, "spans": []}
            )

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            obs.validate_payload({"schema": "nope", "counters": {},
                                  "spans": []})

    def test_validate_rejects_overflowing_children(self):
        payload = {
            "schema": obs.SCHEMA,
            "counters": {},
            "spans": [{
                "name": "p", "count": 1, "total_s": 1.0,
                "children": [{"name": "c", "count": 1, "total_s": 2.0,
                              "children": []}],
            }],
        }
        with pytest.raises(ValueError):
            obs.validate_payload(payload)


class TestRender:
    def test_render_names_spans_and_counters(self, reg):
        with obs.span("machine.launch"):
            obs.add_time("machine.replay", 0.001)
        obs.count("machine.memo_hits", 3)
        text = reg.render(title="telemetry: test")
        assert "telemetry: test" in text
        assert "machine.launch" in text
        assert "machine.replay" in text
        assert "machine.memo_hits" in text

    def test_render_empty(self):
        text = obs.render_payload({"schema": obs.SCHEMA, "counters": {},
                                   "spans": []})
        assert "no spans" in text


class TestIntegration:
    def test_machine_records_phases_and_memo_counters(self, reg):
        import numpy as np

        from repro.gpu.config import small_config
        from repro.gpu.machine import Machine
        from repro.harness.runner import ReplayMemo

        memo = ReplayMemo()
        for _ in range(2):
            m = Machine("cuda", config=small_config())
            m.set_replay_memo(memo)
            arr = m.array_from(np.arange(64, dtype=np.uint64), "u64")

            def k(ctx):
                arr.st(ctx, ctx.tid, arr.ld(ctx, ctx.tid) + np.uint64(1))

            m.launch(k, 64)
        assert reg.counters["machine.memo_misses"] > 0
        assert reg.counters["machine.memo_hits"] > 0
        assert reg.counters["machine.launches"] == 2
        launch = reg.root.children["machine.launch"]
        assert launch.count == 2
        for phase in ("machine.capture", "machine.coalesce",
                      "machine.replay"):
            assert phase in launch.children
        obs.validate_payload(reg.to_dict())

    def test_allocator_counters(self, reg, machine_factory, animals):
        m = machine_factory("sharedoa")
        ptrs = m.new_objects(animals.Dog, 10)
        m.free_objects(ptrs)
        assert reg.counters["memory.alloc_objects"] == 10
        assert reg.counters["memory.free_objects"] == 10


class _Counters(dict):
    """A counter map that reports every bump (``obs.count`` writes it
    directly, bypassing the registry's methods)."""

    def __init__(self, on_probe):
        super().__init__()
        self._on_probe = on_probe

    def __setitem__(self, name, value):
        self._on_probe(name)
        super().__setitem__(name, value)


class _WatchedRegistry(obs.Registry):
    """A registry that reports every probe before recording it."""

    def __init__(self, on_probe):
        super().__init__()
        self._on_probe = on_probe
        self.counters = _Counters(on_probe)

    def add_time(self, name, seconds, count=1):
        self._on_probe(name)
        super().add_time(name, seconds, count)

    def add_root_time(self, name, seconds, count=1):
        self._on_probe(name)
        super().add_root_time(name, seconds, count)

    def span(self, name):
        self._on_probe(name)
        return super().span(name)


def test_no_probe_on_the_per_warp_path(monkeypatch):
    # probes sit at launch, wave and layer boundaries: none may fire
    # while a kernel body, a warp's MemoryTrace.finalize or an engine's
    # replay_wave runs, so telemetry cost cannot scale with the work
    from repro.gpu import machine as machine_mod
    from repro.gpu.replay import FusedEngine, ReferenceEngine
    from repro.gpu.trace import MemoryTrace
    from repro.harness.runner import ReplayMemo, run_one
    from repro.workloads import workload_names

    running = []
    entered = {}
    fired = []

    def region(label, fn):
        def wrapped(*args, **kwargs):
            entered[label] = entered.get(label, 0) + 1
            running.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
        return wrapped

    def on_probe(name):
        if running:
            fired.append((name, running[-1]))

    real_launch = machine_mod._launch
    monkeypatch.setattr(
        machine_mod, "_launch",
        lambda m, kernel, n: real_launch(m, region("kernel", kernel), n))
    monkeypatch.setattr(MemoryTrace, "finalize",
                        region("finalize", MemoryTrace.finalize))
    for engine in (ReferenceEngine, FusedEngine):
        monkeypatch.setattr(engine, "replay_wave",
                            region("replay_wave", engine.replay_wave))

    prev = obs.set_registry(_WatchedRegistry(on_probe))
    try:
        for workload in workload_names():
            for technique in ("cuda", "coal", "soa"):
                run_one(workload, technique, scale=0.02, use_cache=False,
                        memo=ReplayMemo())
    finally:
        watched = obs.set_registry(prev)
    assert set(entered) == {"kernel", "finalize", "replay_wave"}
    assert watched.counters["machine.launches"] > 0
    assert not fired, sorted(set(fired))[:10]

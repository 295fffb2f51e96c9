"""Wave-wide capture is bit-identical to the per-warp executor.

``executor.launch`` calls a kernel once per wave; the per-warp executor
(one call per warp, in warp order) is the spec and the fallback.  Every
test here runs the same program both ways -- the per-warp path reached
by monkeypatching ``executor._run_wave`` away -- and compares the heap
bytes, the ``KernelStats`` and every per-warp ``MemoryTrace`` column the
replay engine received.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Machine, obs, techniques
from repro.errors import InvalidAddress
from repro.gpu import executor
from repro.gpu.config import scaled_config, small_config
from repro.gpu.stats import KernelStats
from repro.gpu.trace import MemoryTrace, role_id
from repro.harness.runner import ReplayMemo, run_one
from repro.memory.heap import SCALAR_TYPES, Heap
from repro.runtime.typesystem import TypeDescriptor
from repro.workloads import workload_names


def _columns(traces):
    return [
        (t.sm, t.line.dtype.str, t.line.tobytes(), t.mask.dtype.str,
         t.mask.tobytes(), t.txn_count.dtype.str, t.txn_count.tobytes(),
         t.txn_start.dtype.str, t.txn_start.tobytes(), t.store.tobytes(),
         t.role.dtype.str, t.role.tobytes())
        for t in traces
    ]


def _heap_bytes(m: Machine) -> bytes:
    heap = m.heap
    return heap.read_array(heap.null_guard, "u8",
                           heap.brk - heap.null_guard).tobytes()


def _counter(name: str) -> int:
    return obs.snapshot()["counters"].get(name, 0)


def _capture(monkeypatch, per_warp: bool, fn):
    """Run ``fn()`` on the wave or per-warp path; returns its result and
    the per-warp trace columns of every replayed wave, in order."""
    waves = []
    real_replay = Machine.replay_wave

    def recording_replay(self, traces, stats):
        waves.append(_columns(traces))
        return real_replay(self, traces, stats)

    with monkeypatch.context() as mp:
        mp.setattr(Machine, "replay_wave", recording_replay)
        if per_warp:
            mp.setattr(executor, "_run_wave", lambda *args: None)
        return fn(), waves


def _both(monkeypatch, program, config=None, technique="cuda"):
    """Run ``program(machine)`` on fresh machines down both paths; assert
    identical heap bytes, results and trace columns.  Returns the wave
    run's fallback counters (conflict, error)."""
    outcomes = []
    fallbacks = None
    for per_warp in (False, True):
        obs.set_registry(obs.Registry())

        def run():
            m = Machine(technique, config=config or small_config())
            return program(m), _heap_bytes(m)

        outcomes.append(_capture(monkeypatch, per_warp, run))
        if not per_warp:
            fallbacks = (_counter("machine.wave_fallback.conflict"),
                         _counter("machine.wave_fallback.error"))
    (wave_result, wave_heap), wave_cols = outcomes[0]
    (warp_result, warp_heap), warp_cols = outcomes[1]
    assert wave_heap == warp_heap
    assert wave_result == warp_result
    assert wave_cols == warp_cols
    return fallbacks


# ----------------------------------------------------------------------
# cross-warp memory semantics: detected, undone, re-run warp by warp
# ----------------------------------------------------------------------
def test_cross_warp_read_after_write_chain(monkeypatch):
    # warp w reads what warp w-1 stored: a chain only sequential warps
    # can build (each lane ends up at its warp index + 1)
    def program(m):
        arr = m.array_from(np.zeros(256, dtype=np.uint32), "u32")

        def kernel(ctx):
            prev = np.where(ctx.tid >= 32, ctx.tid - 32, ctx.tid)
            v = arr.ld(ctx, prev)
            ctx.alu(1)
            arr.st(ctx, ctx.tid, (v + 1).astype(np.uint32))

        stats = m.launch(kernel, 256)
        return stats, arr.read().tolist()

    conflict, error = _both(monkeypatch, program)
    assert (conflict, error) == (1, 0)


def test_cross_warp_write_after_write(monkeypatch):
    # every warp stores to the same 32 slots: the last warp must win
    def program(m):
        arr = m.array("u32", 32)

        def kernel(ctx):
            arr.st(ctx, ctx.tid % 32, ctx.tid.astype(np.uint32))

        stats = m.launch(kernel, 160)
        return stats, arr.read().tolist()

    conflict, _ = _both(monkeypatch, program)
    assert conflict == 1


def test_raise_in_warp_3_leaves_the_per_warp_heap(monkeypatch):
    # the wave stores for all warps, then warp 3's lanes fault; the
    # rollback and per-warp re-run leave warps 0-3's stores only
    def program(m):
        arr = m.array("u32", 256)
        out = m.array("u32", 256)

        def kernel(ctx):
            arr.st(ctx, ctx.tid, (ctx.tid + 7).astype(np.uint32))
            bad = (ctx.tid // 32) == 3
            addrs = np.where(bad, np.uint64(8), arr.addr(ctx.tid))
            out.st(ctx, ctx.tid, ctx.load(addrs, "u32"))

        with pytest.raises(InvalidAddress) as excinfo:
            m.launch(kernel, 256)
        return str(excinfo.value), arr.read().tolist()

    conflict, error = _both(monkeypatch, program)
    assert (conflict, error) == (0, 1)


def test_f32_atomics_from_two_call_sites(monkeypatch):
    # many lanes of many warps add into 7 shared floats from two call
    # sites: the deferred atomics must round in (warp, op, lane) order
    def program(m):
        acc = m.array_from(np.zeros(7, dtype=np.float32), "f32")
        rng = np.random.default_rng(5)
        a = rng.standard_normal(512).astype(np.float32) * 1e3
        b = rng.standard_normal(512).astype(np.float32)

        def kernel(ctx):
            ctx.atomic(acc.addr(ctx.tid % 7), "f32", a[ctx.tid])
            ctx.alu(2)
            ctx.atomic(acc.addr((ctx.tid * 3) % 7), "f32", b[ctx.tid])

        stats = m.launch(kernel, 512)
        return stats, acc.read().tobytes()

    assert _both(monkeypatch, program) == (0, 0)


def test_nested_vcalls(monkeypatch, animals):
    # an outer virtual body makes virtual calls on other objects (each
    # lane its own); the outer and inner types both vary within a warp
    def program(m):
        m.register(animals.Dog, animals.Cat, animals.Puppy)
        pets = np.concatenate([m.new_objects(t, 70) for t in
                               (animals.Dog, animals.Cat, animals.Puppy)])
        pet_arr = m.array_from(pets[np.arange(210) * 11 % 210], "u64")
        legs = m.array("u32", 200)

        def outer_a(ctx, objs):
            inner = pet_arr.ld(ctx, ctx.tid)
            legs.st(ctx, ctx.tid, ctx.vcall(inner, animals.Animal, "legs"))
            ctx.vcall(inner, animals.Animal, "speak")

        def outer_b(ctx, objs):
            ctx.alu(3)
            inner = pet_arr.ld(ctx, ctx.tid)
            legs.st(ctx, ctx.tid, ctx.vcall(inner, animals.Animal, "legs"))

        Outer = TypeDescriptor("Outer#nested", methods={"go": None})
        OuterA = TypeDescriptor("OuterA#nested", base=Outer,
                                methods={"go": outer_a})
        OuterB = TypeDescriptor("OuterB#nested", base=Outer,
                                methods={"go": outer_b})
        outers = np.concatenate([m.new_objects(OuterA, 100),
                                 m.new_objects(OuterB, 100)])
        out_arr = m.array_from(outers[np.arange(200) * 3 % 200], "u64")

        def kernel(ctx):
            ctx.vcall(out_arr.ld(ctx, ctx.tid), Outer, "go")

        stats = m.launch(kernel, 200)
        ages = m.read_field(pets, animals.Animal, "age")
        return stats, legs.read().tolist(), ages.tolist()

    for technique in ("cuda", "coal", "typepointer", "concord"):
        assert _both(monkeypatch, program, technique=technique) == (0, 0)


def test_divergent_branch_and_lane_ids(monkeypatch):
    # lanes diverge differently in every warp; each lane records its
    # warp id and SM, which must be those of the per-warp executor
    def program(m):
        vals = m.array_from(np.arange(300, dtype=np.uint32) * 7 % 11, "u32")
        ids = m.array("u64", 300)
        sms = m.array("u64", 300)

        def kernel(ctx):
            v = vals.ld(ctx, ctx.tid)

            def then(sub, _):
                sub.alu(2)
                ids.st(sub, sub.tid, sub.warp_id.astype(np.uint64))

            def other(sub, _):
                sub.ctrl(1)
                sms.st(sub, sub.tid, sub.sm.astype(np.uint64))

            ctx.branch(v < 4, then, other)

        stats = m.launch(kernel, 300)
        return stats, ids.read().tolist(), sms.read().tolist()

    assert _both(monkeypatch, program) == (0, 0)
    _, ids, sms = program(Machine("cuda", config=small_config()))
    lanes = np.arange(300)
    took_then = np.arange(300) * 7 % 11 < 4
    assert np.array_equal(np.array(ids)[took_then], lanes[took_then] // 32)
    assert np.array_equal(np.array(sms)[~took_then],
                          (lanes[~took_then] // 32) % 4)


def test_a_context_without_lanes_charges_nothing(monkeypatch):
    def program(m):
        arr = m.array("u32", 96)

        def kernel(ctx):
            none = ctx.subcontext(np.zeros(ctx.lane_count, dtype=bool))
            none.alu(5)
            none.load(arr.addr(none.tid), "u32")
            assert none.vcall(np.empty(0, dtype=np.uint64), None, "x") is None
            ctx.alu(1)

        return m.launch(kernel, 96)

    assert _both(monkeypatch, program) == (0, 0)
    stats = program(Machine("cuda", config=small_config()))
    assert stats.total_warp_instrs == 3
    assert stats.global_load_transactions == 0


def test_atomic_on_a_stored_byte_conflicts(monkeypatch):
    # warp 0 stores slot 0; every lane also atomically adds into it
    def program(m):
        arr = m.array("u32", 64)

        def kernel(ctx):
            arr.st(ctx, ctx.tid, ctx.tid.astype(np.uint32))
            ctx.atomic(arr.addr(np.zeros(ctx.lane_count, dtype=np.int64)),
                       "u32", 1)

        stats = m.launch(kernel, 64)
        return stats, arr.read().tolist()

    assert _both(monkeypatch, program) == (1, 0)


def test_wave_finalize_splits_like_per_warp_finalize():
    rng = np.random.default_rng(3)
    for high in (False, True):
        # high addresses overflow the packed sort key: the lexsort path
        base = (1 << 62) if high else 4096
        sms = [0, 1, 2, 0, 1]
        wave = MemoryTrace.for_wave(sms)
        alone = [MemoryTrace(sm) for sm in sms]
        for op in range(40):
            warps = np.sort(rng.integers(0, len(sms), 64))
            addrs = (base + rng.integers(0, 8192, 64)).astype(np.uint64)
            width = int(rng.choice([1, 4, 8, 64]))
            store, rid = bool(op % 3 == 0), role_id(["a", None, "b"][op % 3])
            wave.append_access(addrs, width, store, rid, warps)
            for w in np.unique(warps).tolist():
                alone[w].append_access(addrs[warps == w], width, store, rid)
        got, want = KernelStats(), KernelStats()
        wave.finalize(got)
        expected = [t.finalize(want) for t in alone]
        assert _columns(wave.warps) == _columns(expected)
        assert got == want
        assert wave.n_accesses == sum(t.n_accesses for t in expected)
        assert wave.n_txns == sum(t.n_txns for t in expected)


def test_branch_payload_microbench(monkeypatch):
    from repro.workloads.microbench import BranchMicrobench

    def program(m):
        bench = BranchMicrobench(m, num_threads=700, num_types=5)
        stats = bench.run(iterations=2)
        return stats, bench.data.read().tolist()

    assert _both(monkeypatch, program) == (0, 0)


def test_tlb_model_with_shared_sms_and_several_waves(monkeypatch):
    cfg = dataclasses.replace(small_config(), name="test-gpu+tlb",
                              model_tlb=True)
    wave_warps = cfg.num_sms * cfg.resident_warps_per_sm
    num_threads = 2 * wave_warps * 32 + 100
    # more than one wave, and more warps per wave than SMs
    assert num_threads > wave_warps * 32
    assert wave_warps > cfg.num_sms

    def program(m):
        # 48 64KiB pages of data against 32-entry L1 TLBs: the order in
        # which warps sharing an SM probe their pages decides the walks
        n = 48 * 16384
        data = m.array_from(np.arange(n, dtype=np.uint32), "u32")
        out = m.array("u32", num_threads)
        stride = 5 * 16384 + 3

        def kernel(ctx):
            v = data.ld(ctx, (ctx.tid * stride) % n)
            w = data.ld(ctx, ctx.tid % n)
            ctx.alu(1)
            out.st(ctx, ctx.tid, v + w)

        stats = m.launch(kernel, num_threads)
        assert stats.tlb_walks > 0
        return stats, m.tlb.stats, out.read().tolist()

    assert _both(monkeypatch, program, config=cfg) == (0, 0)


# ----------------------------------------------------------------------
# every workload x technique, two configurations
# ----------------------------------------------------------------------
def _run_suite(monkeypatch, per_warp, config, wave_sizes):
    out = {}
    for wl in workload_names():
        for tech in techniques.available():
            memo = ReplayMemo()

            def run():
                return run_one(wl, tech, scale=0.02, seed=7, config=config,
                               use_cache=False, memo=memo)

            record, waves = _capture(monkeypatch, per_warp, run)
            wave_sizes.update(len(w) for w in waves)
            out[wl, tech] = (record, waves, list(memo._store))
    return out


@pytest.mark.parametrize("config", [
    None,
    dataclasses.replace(small_config(), name="test-gpu+tlb", model_tlb=True),
], ids=["scaled", "small-tlb"])
def test_every_workload_and_technique_matches_per_warp(monkeypatch, config):
    sizes = set()
    wave = _run_suite(monkeypatch, False, config, sizes)
    per_warp = _run_suite(monkeypatch, True, config, set())
    num_sms = (config or scaled_config()).num_sms
    assert max(sizes) > num_sms  # some waves share SMs between warps
    for key in wave:
        record, cols, memo_keys = wave[key]
        ref_record, ref_cols, ref_memo_keys = per_warp[key]
        assert record == ref_record, key
        assert cols == ref_cols, key
        assert memo_keys == ref_memo_keys, key


# ----------------------------------------------------------------------
# fallback counters
# ----------------------------------------------------------------------
def test_traffic_falls_back_and_game_of_life_does_not():
    run_one("TRAF", "coal", scale=0.02, use_cache=False, memo=ReplayMemo())
    fallbacks = _counter("machine.wave_fallbacks")
    assert fallbacks >= 1
    assert fallbacks == (_counter("machine.wave_fallback.conflict")
                         + _counter("machine.wave_fallback.error"))
    obs.set_registry(obs.Registry())
    run_one("GOL", "coal", scale=0.02, use_cache=False, memo=ReplayMemo())
    assert _counter("machine.wave_fallbacks") == 0
    assert _counter("machine.launches") > 0


def test_coalesce_span_counts_coalesce_passes(monkeypatch):
    # one wave, no conflict: one finalize for the whole wave
    m = Machine("cuda", config=small_config())
    arr = m.array("u32", 640)

    def kernel(ctx):
        arr.st(ctx, ctx.tid, ctx.tid.astype(np.uint32))

    m.launch(kernel, 640)
    launch = next(s for s in obs.snapshot()["spans"]
                  if s["name"] == "machine.launch")
    coalesce = next(c for c in launch["children"]
                    if c["name"] == "machine.coalesce")
    assert coalesce["count"] == 1


# ----------------------------------------------------------------------
# the one exact atomic primitive
# ----------------------------------------------------------------------
def _scalar_atomics(heap, addrs, dtype, values, op):
    """The sequential per-lane loop: each lane sees the previous one."""
    np_dtype = SCALAR_TYPES[dtype][0]
    for addr, v in zip(addrs.tolist(), values):
        old = heap.load(addr, dtype)
        if op == "add":
            new = np_dtype(old + v)
        elif op == "min":
            new = min(old, v)
        else:
            new = max(old, v)
        heap.store(addr, dtype, new)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("op", ["add", "min", "max"])
def test_ordered_atomics_match_the_scalar_loop(dtype, op):
    np_dtype, size = SCALAR_TYPES[dtype]
    rng = np.random.default_rng(11)
    n = 10_000
    values = (rng.standard_normal(n) * 1e4).astype(np_dtype)
    if op != "add":
        # NaN operands and signed-zero ties are where a ufunc can differ
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf],
                           dtype=np_dtype)
        pick = rng.random(n) < 0.2
        values[pick] = special[rng.integers(0, len(special), pick.sum())]
    heaps = [Heap(capacity=1 << 16), Heap(capacity=1 << 16)]
    base = [h.sbrk(64 * size, alignment=64) for h in heaps][0]
    start = rng.standard_normal(64).astype(np_dtype)
    start[:4] = np.array([0.0, -0.0, np.nan, 1.0], dtype=np_dtype)
    for h in heaps:
        h.write_array(base, dtype, start)
    addrs = (base + size * rng.integers(0, 64, n)).astype(np.uint64)

    heaps[0].atomic(addrs, dtype, values, op)
    _scalar_atomics(heaps[1], addrs, dtype, values, op)
    assert (heaps[0].read_array(base, dtype, 64).tobytes()
            == heaps[1].read_array(base, dtype, 64).tobytes())


def test_misaligned_atomics_take_the_scalar_loop():
    heaps = [Heap(capacity=1 << 12), Heap(capacity=1 << 12)]
    base = [h.sbrk(64) for h in heaps][0]
    addrs = np.array([base + 2, base + 6, base + 2, base + 10],
                     dtype=np.uint64)
    values = np.array([1.5, 2.25, -3.0, 4.0], dtype=np.float32)
    heaps[0].atomic(addrs, "f32", values, "add")
    _scalar_atomics(heaps[1], addrs, "f32", values, "add")
    assert (heaps[0].read_array(base, "u8", 64).tobytes()
            == heaps[1].read_array(base, "u8", 64).tobytes())

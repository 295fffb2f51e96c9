"""The memory-trace IR: batched coalescing, CSR layout, wave flattening."""
from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.coalescing import coalesce, coalesce_arrays
from repro.gpu.stats import KernelStats
from repro.gpu.trace import (
    MemoryTrace,
    POPCOUNT4,
    flatten_wave,
    role_id,
    role_name,
)

addr_lists = st.lists(
    st.integers(min_value=0, max_value=4096), min_size=1, max_size=32
)
widths = st.sampled_from([1, 4, 8, 16, 32])


# ----------------------------------------------------------------------
# coalesce_arrays is the batched form of coalesce
# ----------------------------------------------------------------------
@given(addrs=addr_lists, width=widths)
def test_coalesce_arrays_matches_coalesce(addrs, width):
    a = np.asarray(addrs, dtype=np.uint64)
    txns = coalesce(a, width)
    lines, masks = coalesce_arrays(a, width)
    assert [t.line_addr for t in txns] == lines.tolist()
    assert [t.sector_mask for t in txns] == masks.tolist()


# ----------------------------------------------------------------------
# deferred per-warp coalescing reproduces per-access coalescing
# ----------------------------------------------------------------------
accesses = st.lists(
    st.tuples(addr_lists, widths, st.booleans(),
              st.sampled_from([None, "roleA", "roleB"])),
    min_size=1, max_size=12,
)


@given(accs=accesses)
@settings(max_examples=60, deadline=None)
def test_finalize_matches_per_access_coalescing(accs):
    trace = MemoryTrace(sm=0)
    expect = []
    for addrs, width, store, role in accs:
        a = np.asarray(addrs, dtype=np.uint64)
        trace.append_access(a, width, store, role_id(role))
        expect.append(coalesce_arrays(a, width))
    trace.finalize()

    assert trace.n_accesses == len(accs)
    for i, (lines, masks) in enumerate(expect):
        s = int(trace.txn_start[i])
        e = s + int(trace.txn_count[i])
        assert trace.line[s:e].tolist() == lines.tolist()
        assert trace.mask[s:e].tolist() == masks.tolist()
    assert trace.store.tolist() == [a[2] for a in accs]
    assert [role_name(r) for r in trace.role.tolist()] == [a[3] for a in accs]


@given(accs=accesses)
@settings(max_examples=40, deadline=None)
def test_finalize_defers_transaction_counters(accs):
    trace = MemoryTrace(sm=1)
    expect = KernelStats()
    for addrs, width, store, role in accs:
        a = np.asarray(addrs, dtype=np.uint64)
        trace.append_access(a, width, store, role_id(role))
        _, masks = coalesce_arrays(a, width)
        n = int(POPCOUNT4[masks].sum())
        if store:
            expect.global_store_transactions += n
        else:
            expect.global_load_transactions += n
            expect.add_role_transactions(role, n)
    got = KernelStats()
    trace.finalize(got)
    assert got.global_load_transactions == expect.global_load_transactions
    assert got.global_store_transactions == expect.global_store_transactions
    assert got.role_transactions == expect.role_transactions


def test_empty_trace_finalize():
    trace = MemoryTrace(sm=2).finalize(KernelStats())
    assert trace.n_accesses == 0
    assert trace.n_txns == 0
    assert trace.total_sectors() == 0
    assert flatten_wave([trace]) is None


def test_zero_lane_access_keeps_boundaries():
    trace = MemoryTrace(sm=0)
    trace.append_access(np.empty(0, dtype=np.uint64), 4, False, 0)
    trace.append_access(np.array([128], dtype=np.uint64), 4, False, 0)
    trace.finalize()
    assert trace.txn_count.tolist() == [0, 1]
    assert trace.txn_start.tolist() == [0, 0]


# ----------------------------------------------------------------------
# flatten_wave preserves the round-robin replay invariant
# ----------------------------------------------------------------------
def _naive_round_robin(traces):
    """Access r of every warp (warp order) before access r+1 of any."""
    line, mask, sm, store, role = [], [], [], [], []
    cursors = [0] * len(traces)
    remaining = sum(t.n_accesses for t in traces)
    while remaining:
        for i, t in enumerate(traces):
            c = cursors[i]
            if c >= t.n_accesses:
                continue
            cursors[i] = c + 1
            remaining -= 1
            s = int(t.txn_start[c])
            e = s + int(t.txn_count[c])
            line.extend(t.line[s:e].tolist())
            mask.extend(t.mask[s:e].tolist())
            sm.extend([t.sm] * (e - s))
            store.extend([bool(t.store[c])] * (e - s))
            role.extend([int(t.role[c])] * (e - s))
    return line, mask, sm, store, role


@given(
    warps=st.lists(accesses, min_size=1, max_size=4),
    sms=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_flatten_wave_is_round_robin(warps, sms):
    traces = []
    for w, accs in enumerate(warps):
        t = MemoryTrace(sm=w % sms)
        for addrs, width, store, role in accs:
            t.append_access(np.asarray(addrs, dtype=np.uint64), width,
                            store, role_id(role))
        traces.append(t.finalize())
    flat = flatten_wave(traces)
    line, mask, sm, store, role = _naive_round_robin(traces)
    if not line:
        assert flat is None
        return
    f_line, f_mask, f_sm, f_store, f_role, f_nsec = flat
    assert f_line.tolist() == line
    assert f_mask.tolist() == mask
    assert f_sm.tolist() == sm
    assert f_store.tolist() == store
    assert f_role.tolist() == role
    assert f_nsec.tolist() == POPCOUNT4[np.asarray(mask)].tolist()


# ----------------------------------------------------------------------
# digests and role interning
# ----------------------------------------------------------------------
def _digest(trace):
    h = hashlib.sha1()
    trace.digest_into(h)
    return h.digest()


def test_digest_distinguishes_replay_relevant_content():
    def make(mask_addr):
        t = MemoryTrace(sm=0)
        t.append_access(np.array([mask_addr], dtype=np.uint64), 4, False, 0)
        return t.finalize()

    assert _digest(make(0)) == _digest(make(0))
    # different sector of the same line -> different mask -> new digest
    assert _digest(make(0)) != _digest(make(32))


def test_role_interning_round_trips():
    assert role_id(None) == 0
    assert role_name(0) is None
    rid = role_id("some-role")
    assert rid > 0
    assert role_id("some-role") == rid
    assert role_name(rid) == "some-role"

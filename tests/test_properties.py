"""Cross-module property-based tests (hypothesis).

These tie whole subsystems together: random type populations must
dispatch identically under every technique; random alloc/free traces
must keep COAL's segment tree consistent with the allocator; random
access patterns must keep the cache accounting exact.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Machine, TypeDescriptor
from repro.gpu.config import small_config
from repro.memory.heap import Heap
from repro.memory.shared_oa import SharedOAAllocator



def _make_hierarchy(tag, num_types):
    base = TypeDescriptor(
        f"PBase#{tag}", fields=[("acc", "u32")], methods={"bump": None}
    )
    leaves = []
    for k in range(num_types):
        inc = np.uint32(k + 1)

        def bump(ctx, objs, _inc=inc, _base=base):
            v = ctx.load_field(objs, _base, "acc")
            ctx.store_field(objs, _base, "acc", v + _inc)

        leaves.append(
            TypeDescriptor(f"PLeaf{k}#{tag}", base=base,
                           methods={"bump": bump})
        )
    return base, leaves


_uid = [0]


@given(
    type_ids=st.lists(st.integers(0, 3), min_size=1, max_size=96),
    iterations=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_dispatch_equivalence_property(type_ids, iterations):
    """Any type mix, any iteration count: all techniques agree exactly."""
    results = {}
    for tech in ("cuda", "concord", "coal", "typepointer",
                 "typepointer_indexed"):
        _uid[0] += 1
        m = Machine(tech, config=small_config())
        base, leaves = _make_hierarchy(f"{tech}{_uid[0]}", 4)
        m.register(*leaves)
        ptrs = np.array(
            [m.new_objects(leaves[k], 1)[0] for k in type_ids], dtype=np.uint64
        )
        arr = m.array_from(ptrs, "u64")

        def kernel(ctx):
            ctx.vcall(arr.ld(ctx, ctx.tid), base, "bump")

        for _ in range(iterations):
            m.launch(kernel, len(ptrs))
        off = m.registry.layout(base).offset("acc")
        results[tech] = tuple(
            int(m.heap.load(m.allocator._canonical(int(p)) + off, "u32"))
            for p in ptrs
        )
        # ground truth: each object bumped (kind+1) per iteration
        expect = tuple((k + 1) * iterations for k in type_ids)
        assert results[tech] == expect, tech
    assert len(set(results.values())) == 1


@given(
    ops=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                 min_size=1, max_size=60),
)
@settings(max_examples=20, deadline=None)
def test_segment_tree_tracks_allocator_property(ops):
    """After any alloc/free trace, the tree resolves every live object
    to its true type and rejects addresses outside all ranges."""
    from repro.core.range_table import VirtualRangeTable

    heap = Heap(capacity=1 << 20)
    soa = SharedOAAllocator(heap, initial_chunk_objects=2)
    live = {0: [], 1: [], 2: []}
    for t, is_free in ops:
        if is_free and live[t]:
            soa.free_object(live[t].pop())
        else:
            live[t].append(soa.alloc_object(t, 16 + t * 8))
    if not soa.ranges():
        return
    vt_of = {t: 1000 + t for t in (0, 1, 2)}
    table = VirtualRangeTable(heap, soa.ranges(), lambda t: vt_of[t])
    for t, ptrs in live.items():
        for p in ptrs:
            assert table.scalar_lookup(p) == vt_of[t]
    # an address below every range resolves to nothing
    assert table.scalar_lookup(1) is None


@given(
    seeds=st.integers(0, 10_000),
    n_accesses=st.integers(1, 40),
)
@settings(max_examples=20, deadline=None)
def test_cache_accounting_exact_property(seeds, n_accesses):
    """hits + next-level accesses == accesses at every level, for any
    random access stream through a real Machine."""
    rng = np.random.default_rng(seeds)
    m = Machine("cuda", config=small_config())
    arr = m.array_from(np.zeros(512, dtype=np.uint64), "u64")
    idx = rng.integers(0, 512, size=(n_accesses, 32))

    def kernel(ctx):
        for row in idx:
            arr.ld(ctx, row[: ctx.lane_count])

    stats = m.launch(kernel, 32)
    assert stats.l1_hits + stats.l2_accesses == stats.l1_accesses
    assert stats.l2_hits + stats.dram_accesses == stats.l2_accesses
    assert stats.global_load_transactions == stats.l1_accesses


@given(counts=st.lists(st.integers(1, 40), min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_typepointer_tags_always_resolve_property(counts):
    """Every pointer a TypePointer machine hands out decodes to the
    type it was allocated as, regardless of allocation interleaving."""
    from repro.memory.address_space import decode_tag

    _uid[0] += 1
    m = Machine("typepointer", config=small_config())
    base, leaves = _make_hierarchy(f"tp{_uid[0]}", len(counts))
    m.register(*leaves)
    for k, n in enumerate(counts):
        ptrs = m.new_objects(leaves[k], n)
        for p in ptrs:
            tag = decode_tag(int(p))
            assert m.arena.type_of_tag(tag) is leaves[k]

"""Tests for Machine wiring: techniques, allocators, MMU modes."""
import numpy as np
import pytest

from repro import Machine, techniques
from repro.errors import LaunchError
from repro.memory.cuda_allocator import CudaHeapAllocator
from repro.memory.mmu import MMUMode
from repro.memory.shared_oa import SharedOAAllocator
from repro.memory.typepointer_alloc import TypePointerAllocator

from conftest import ALL_TECHNIQUES


def test_unknown_technique_rejected():
    with pytest.raises(LaunchError):
        Machine("magic")


def test_constructor_knobs_are_keyword_only():
    from repro.gpu.config import small_config

    with pytest.raises(TypeError):
        Machine("cuda", small_config())
    with pytest.raises(TypeError):
        Machine("sharedoa", None, 128)
    # the same knobs spelled as keywords are fine
    m = Machine("sharedoa", config=small_config(),
                initial_chunk_objects=128, heap_capacity=1 << 20,
                merge_adjacent=False)
    assert m.technique == "sharedoa"


def test_launch_label_annotated_optional():
    import typing

    hints = typing.get_type_hints(Machine.launch)
    assert hints["label"] == typing.Optional[str]


@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_machine_batch_free(machine_factory, animals, technique):
    m = machine_factory(technique)
    dogs = m.new_objects(animals.Dog, 12)
    cats = m.new_objects(animals.Cat, 12)
    assert m.allocator.live_count() == 24
    m.free_objects(dogs)                      # ndarray input
    m.free_objects([int(p) for p in cats])    # iterable input
    assert m.allocator.live_count() == 0
    assert m.allocator.stats.frees == 24


def test_machine_batch_free_single_and_empty(machine_factory, animals):
    m = machine_factory("typepointer")
    objs = m.new_objects(animals.Dog, 2)
    m.free_objects([])                        # no-op
    m.free_objects(objs[:1])                  # single-element path
    assert m.allocator.live_count() == 1
    m.free_objects(objs[1:])
    assert m.allocator.live_count() == 0


def test_default_replay_memo_hook(machine_factory):
    from repro.gpu.machine import set_default_replay_memo
    from repro.harness.runner import ReplayMemo

    memo = ReplayMemo()
    prev = set_default_replay_memo(memo)
    try:
        m = machine_factory("cuda")
        assert m._replay_memo is memo
    finally:
        set_default_replay_memo(prev)
    # restored: new machines no longer pick it up
    assert machine_factory("cuda")._replay_memo is prev


def test_technique_lists_consistent():
    assert set(techniques.paper_techniques()) <= set(techniques.available())
    assert set(ALL_TECHNIQUES) == set(techniques.available())


@pytest.mark.parametrize(
    "technique,alloc_cls",
    [
        ("cuda", CudaHeapAllocator),
        ("concord", CudaHeapAllocator),
        ("sharedoa", SharedOAAllocator),
        ("coal", SharedOAAllocator),
        ("typepointer", TypePointerAllocator),
        ("typepointer_proto", TypePointerAllocator),
        ("tp_on_cuda", TypePointerAllocator),
    ],
)
def test_allocator_wiring(machine_factory, technique, alloc_cls):
    assert isinstance(machine_factory(technique).allocator, alloc_cls)


def test_tp_on_cuda_wraps_cuda_allocator(machine_factory):
    m = machine_factory("tp_on_cuda")
    assert isinstance(m.allocator.inner, CudaHeapAllocator)


def test_typepointer_wraps_sharedoa(machine_factory):
    m = machine_factory("typepointer")
    assert isinstance(m.allocator.inner, SharedOAAllocator)


@pytest.mark.parametrize(
    "technique,mode",
    [
        ("cuda", MMUMode.BASELINE),
        ("concord", MMUMode.BASELINE),
        ("sharedoa", MMUMode.BASELINE),
        ("coal", MMUMode.BASELINE),
        ("typepointer", MMUMode.TYPEPOINTER),
        ("typepointer_proto", MMUMode.PROTOTYPE),
        ("tp_on_cuda", MMUMode.TYPEPOINTER),
    ],
)
def test_mmu_mode_wiring(machine_factory, technique, mode):
    assert machine_factory(technique).mmu.mode is mode


def test_header_sizes(machine_factory, animals):
    # CUDA: one vTable*; SharedOA: CPU+GPU vTable*; Concord: 4B tag
    sizes = {}
    for tech in ("cuda", "concord", "sharedoa"):
        m = machine_factory(tech)
        m.register(animals.Dog)
        sizes[tech] = m.registry.layout(animals.Dog).size
    assert sizes["concord"] <= sizes["cuda"] <= sizes["sharedoa"]


def test_new_objects_constructs_headers(machine_factory, animals):
    m = machine_factory("sharedoa")
    dog = m.new_objects(animals.Dog, 1)[0]
    gpu_vt = int(m.heap.load(int(dog), "u64"))
    assert m.arena.type_of_vtable_addr(gpu_vt) is animals.Dog
    # the CPU vTable pointer (offset 8) differs from the GPU one
    cpu_vt = int(m.heap.load(int(dog) + 8, "u64"))
    assert cpu_vt != gpu_vt


def test_free_objects(machine_factory, animals):
    m = machine_factory("cuda")
    dogs = m.new_objects(animals.Dog, 10)
    m.free_objects(dogs[:5])
    assert m.allocator.live_count() == 5


def test_array_from_roundtrip(machine_factory):
    m = machine_factory("cuda")
    vals = np.array([1.5, -2.5, 3.25], dtype=np.float64)
    arr = m.array_from(vals, "f64")
    np.testing.assert_array_equal(arr.read(), vals)


def test_device_array_validation(machine_factory):
    m = machine_factory("cuda")
    with pytest.raises(ValueError):
        m.array("u32", 0)
    with pytest.raises(ValueError):
        m.array("nope", 4)
    arr = m.array("u32", 4)
    with pytest.raises(IndexError):
        arr.addr(np.array([4], dtype=np.uint64))
    with pytest.raises(ValueError):
        arr.write(np.zeros(3))


def test_device_array_item_access(machine_factory):
    m = machine_factory("cuda")
    arr = m.array("u32", 4)
    arr[2] = 42
    assert arr[2] == 42
    assert len(arr) == 4


def test_describe(machine_factory):
    text = machine_factory("coal").describe()
    assert "coal" in text and "SharedOA" in text


def test_register_builds_vtables_for_bases(machine_factory, animals):
    m = machine_factory("cuda")
    m.register(animals.Puppy)  # should pull in Dog and Animal
    assert m.arena.num_tables() == 3

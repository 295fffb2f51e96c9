"""The Machine: one GPU + runtime configured for one technique.

A machine bundles everything one evaluated configuration needs --
heap, MMU (in the right mode), allocator, cache hierarchy, type
registry, vTable arena and dispatch strategy -- under a technique
name resolved through the :mod:`repro.techniques` registry (run
``python -m repro` help or ``techniques.available()`` for the list):

==================  =========================================================
``cuda``            default CUDA allocator + embedded-vTable dispatch
``concord``         default CUDA allocator + type-tag/switch dispatch
``sharedoa``        SharedOA allocator + embedded-vTable dispatch
``coal``            SharedOA allocator + COAL range-lookup dispatch
``typepointer``     SharedOA allocator + tag-bit dispatch, modified MMU
``typepointer_proto``  as above but the software prototype: stock MMU,
                    compiler-inserted masking at member accesses (6.3)
``tp_on_cuda``      default CUDA allocator + tag-bit dispatch (Figure 11)
``soa``             DynaSOAr-family SoA allocator + embedded-vTable dispatch
==================  =========================================================
"""
from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .. import obs
from ..errors import LaunchError
from ..memory.address_space import strip_tag_array
from ..memory.heap import Heap
from ..memory.mmu import MMU
from ..runtime.objects import DeviceArray
from ..runtime.typesystem import ObjectLayout, TypeDescriptor, TypeRegistry
from ..runtime.vtable import VTableArena
from ..techniques import resolve as _resolve_technique
from .cache import MemoryHierarchy
from .config import GPUConfig
from .constmem import ConstantMemory
from .replay import make_engine, resolve_engine_name
from .tlb import TLBHierarchy
from .executor import launch as _launch
from .stats import KernelStats

#: Process-wide replay memo newly constructed machines attach by
#: default (None = no memo).  Worker processes of the parallel
#: experiment service point this at a store-backed memo so *every*
#: machine they build -- including the ones harness code constructs
#: directly, outside ``harness.runner`` -- replays out of the
#: persistent store.  ``Machine.set_replay_memo`` still overrides it
#: per machine.
_DEFAULT_MEMO = None


def set_default_replay_memo(memo):
    """Install the memo new machines start with; returns the old one."""
    global _DEFAULT_MEMO
    old, _DEFAULT_MEMO = _DEFAULT_MEMO, memo
    return old


class Machine:
    """A simulated GPU configured for one of the paper's techniques.

    Everything beyond the technique name is a tuning knob, so the
    constructor takes it keyword-only: ``Machine("coal",
    initial_chunk_objects=1024)``.
    """

    def __init__(
        self,
        technique: str = "cuda",
        *,
        config: Optional[GPUConfig] = None,
        initial_chunk_objects: int = 4096,
        heap_capacity: int = 1 << 22,
        merge_adjacent: bool = True,
    ):
        spec = _resolve_technique(technique)
        self.technique = spec.name          # canonicalises aliases
        self.config = config or GPUConfig()
        #: allocator tuning knobs, read by the registry's factories
        self.initial_chunk_objects = initial_chunk_objects
        self.merge_adjacent = merge_adjacent
        self.heap = Heap(capacity=heap_capacity)
        self.arena = VTableArena(self.heap)
        self.hierarchy = MemoryHierarchy(self.config)
        self.constmem = ConstantMemory(self.config.num_sms)
        self.tlb = (
            TLBHierarchy(self.config.num_sms, self.config.tlb_l1_entries,
                         self.config.tlb_l2_entries)
            if self.config.model_tlb else None
        )

        #: stage-two replay engine (see repro.gpu.replay); owns cache
        #: state for its lifetime, like a real GPU across kernels
        self.engine = make_engine(
            resolve_engine_name(self.config), self.config, self.hierarchy
        )
        #: optional cross-run replay memo (set by harness.runner before
        #: any launch); plus the trace-hash chain and pending traces
        self._replay_memo = _DEFAULT_MEMO
        self._trace_chain: Optional[bytes] = None
        self._pending_traces: List[list] = []
        self._waves_replayed = 0

        # no per-technique branching here: the registry spec carries the
        # dispatch strategy, allocator recipe and MMU mode
        self.strategy = spec.dispatch_factory()
        self._registered: set = set()
        self.registry = TypeRegistry(header_size=self.strategy.header_size)
        self.allocator = spec.allocator_factory(self)
        self.mmu = MMU(self.heap, mode=spec.mmu_mode)
        self.strategy.bind(self)

        #: accumulated counters across every launch of this machine
        self.run_stats = KernelStats()
        self.launches = 0
        #: (label, KernelStats) per launch, newest last (bounded)
        self.launch_history: List[tuple] = []
        self.max_history = 256

    # ------------------------------------------------------------------
    # object and array management
    # ------------------------------------------------------------------
    def register(self, *types: TypeDescriptor) -> None:
        """Register types (ensuring their vTables exist in the arena)."""
        for t in types:
            if t in self._registered:
                continue
            self.registry.register(t)
            for member in t.mro():
                self.arena.ensure_type(member)
            self._registered.add(t)

    def new_objects(self, type_desc: TypeDescriptor, count: int) -> np.ndarray:
        """Allocate and construct ``count`` objects; returns their pointers.

        Pointers are tagged under TypePointer techniques.  Construction
        (header writes) is host-side, matching the paper's methodology
        of excluding object initialisation from kernel measurements.
        """
        self.register(type_desc)
        layout = self.registry.layout(type_desc)
        alloc = self.allocator.alloc_object
        if count == 1:
            ptr = alloc(type_desc, layout.size)
            self.strategy.on_construct(
                self.allocator._canonical(ptr), type_desc
            )
            return np.array([ptr], dtype=np.uint64)
        ptrs = np.empty(count, dtype=np.uint64)
        for i in range(count):
            ptrs[i] = alloc(type_desc, layout.size)
        # batched header writes (strip_tag_array is every allocator's
        # _canonical, vectorised: identity when pointers carry no tag)
        self.strategy.on_construct_many(strip_tag_array(ptrs), type_desc)
        return ptrs

    def free_objects(self, ptrs: Iterable[int]) -> None:
        """Free a batch of (possibly tagged) object pointers.

        Batched mirror of :meth:`new_objects`: the allocators validate
        and release the whole batch vectorised (``free_objects_many``)
        instead of walking a per-pointer Python loop.
        """
        if isinstance(ptrs, np.ndarray):
            arr = ptrs.astype(np.uint64, copy=False)
        else:
            arr = np.fromiter((int(p) for p in ptrs), dtype=np.uint64)
        if arr.size == 0:
            return
        if arr.size == 1:
            self.allocator.free_object(int(arr[0]))
            return
        self.allocator.free_objects_many(arr)

    # ------------------------------------------------------------------
    # host-side field access
    # ------------------------------------------------------------------
    def _layout_of(self, type_or_layout) -> ObjectLayout:
        if isinstance(type_or_layout, ObjectLayout):
            return type_or_layout
        return self.registry.layout(type_or_layout)

    def field_addr(self, ptr: int, type_or_layout, field: str) -> int:
        """Canonical address of one object's field under this allocator."""
        layout = self._layout_of(type_or_layout)
        canon = self.allocator._canonical(int(ptr))
        return self.allocator.field_addr(canon, layout, field)

    def read_field(self, ptrs, type_or_layout, field: str):
        """Host-side read of one field from one or many object pointers.

        Pointers may carry TypePointer tags.  Scalar in, scalar out;
        array in, array out.  All placement knowledge stays inside the
        allocator's ``field_addr(s)`` hook -- under the SoA technique
        these addresses are field-major, not base + offset.
        """
        layout = self._layout_of(type_or_layout)
        dtype = layout.dtype(field)
        if isinstance(ptrs, np.ndarray):
            canon = strip_tag_array(ptrs.astype(np.uint64, copy=False))
            addrs = self.allocator.field_addrs(canon, layout, field)
            return self.heap.gather(addrs, dtype)
        return self.heap.load(self.field_addr(ptrs, layout, field), dtype)

    def write_field(self, ptrs, type_or_layout, field: str, values) -> None:
        """Host-side write of one field; broadcasts a scalar ``values``."""
        layout = self._layout_of(type_or_layout)
        dtype = layout.dtype(field)
        if isinstance(ptrs, np.ndarray):
            canon = strip_tag_array(ptrs.astype(np.uint64, copy=False))
            addrs = self.allocator.field_addrs(canon, layout, field)
            vals = np.broadcast_to(np.asarray(values), addrs.shape)
            self.heap.scatter(addrs, dtype, vals)
            return
        self.heap.store(self.field_addr(ptrs, layout, field), dtype, values)

    def array(self, dtype: str, count: int) -> DeviceArray:
        return DeviceArray(self, dtype, count)

    def array_from(self, values, dtype: str) -> DeviceArray:
        vals = np.asarray(values)
        arr = DeviceArray(self, dtype, int(vals.size))
        arr.write(vals)
        return arr

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def set_replay_memo(self, memo) -> None:
        """Attach a cross-run replay memo (see ``harness.runner``).

        Must happen before the first launch: memo keys chain over every
        wave replayed since machine construction, so attaching mid-run
        would let two machines with different cache state share keys.
        """
        if self._waves_replayed:
            raise LaunchError(
                "replay memo must be attached before the first launch"
            )
        self._replay_memo = memo

    def _advance_chain(self, traces) -> bytes:
        import hashlib

        h = hashlib.sha1()
        if self._trace_chain is None:
            cfg = self.config
            h.update(repr((
                self.engine.name, cfg.num_sms, cfg.l1, cfg.l2,
                cfg.dram_row_bytes, cfg.dram_num_banks,
            )).encode())
        else:
            h.update(self._trace_chain)
        for t in traces:
            t.digest_into(h)
        self._trace_chain = h.digest()
        return self._trace_chain

    def replay_wave(self, traces, stats: KernelStats) -> None:
        """Replay (or reuse) one wave of traces via the engine.

        With a memo attached, the wave's counters are looked up under a
        hash chained over the machine's whole trace history -- replay
        counters are a pure function of that chain, so a hit is exact.
        Hits defer the engine's state update (traces go to a pending
        list); the first miss drains the pending traces through the
        engine to rebuild cache state before replaying live.
        """
        self._waves_replayed += 1
        obs.count("machine.waves")
        memo = self._replay_memo
        if memo is None:
            self.engine.replay_wave(traces, stats)
            return
        key = self._advance_chain(traces)
        hit = memo.get(key)
        if hit is not None:
            obs.count("machine.memo_hits")
            stats.merge(hit)
            self._pending_traces.append(traces)
            return
        obs.count("machine.memo_misses")
        if self._pending_traces:
            scratch = KernelStats()
            for wave in self._pending_traces:
                self.engine.replay_wave(wave, scratch)
            self._pending_traces.clear()
        delta = KernelStats()
        self.engine.replay_wave(traces, delta)
        stats.merge(delta)
        memo.put(key, delta)

    def launch(self, kernel, num_threads: int,
               label: Optional[str] = None) -> KernelStats:
        """Run one kernel; returns its stats and accumulates run totals.

        ``label`` names the launch in the per-kernel profile (defaults
        to the kernel callable's __name__, like nvprof's kernel list).
        """
        stats = _launch(self, kernel, num_threads)
        self.run_stats.merge(stats)
        self.launches += 1
        obs.count("machine.launches")
        name = label or getattr(kernel, "__name__", "kernel")
        if len(self.launch_history) < self.max_history:
            self.launch_history.append((name, stats))
        return stats

    def reset_run(self) -> None:
        """Clear accumulated run statistics (not memory contents)."""
        self.run_stats = KernelStats()
        self.launches = 0
        self.launch_history = []
        self.hierarchy.reset_stats()
        self.constmem.reset_stats()
        if self.tlb is not None:
            self.tlb.reset_stats()

    # ------------------------------------------------------------------
    @property
    def num_types(self) -> int:
        return len(self.registry)

    def describe(self) -> str:
        return (
            f"Machine(technique={self.technique}, allocator={self.allocator.name}, "
            f"strategy={self.strategy.name}, mmu={self.mmu.mode.value}, "
            f"gpu={self.config.name})"
        )

"""The SIMT executor: warp-granular functional + cost simulation.

A kernel is a Python callable ``kernel(ctx)`` invoked once per warp.
The :class:`ExecutionContext` exposes the warp's thread ids and the
charged operations a lowered GPU program performs: global loads and
stores (which run through the MMU, the coalescer and the cache
hierarchy against *real* simulated addresses), ALU and control
instructions (counted into the Figure 7 buckets), and -- the heart of
the model -- ``vcall``, which asks the machine's dispatch strategy to
resolve a virtual call per Table 1 and then executes each distinct
target once (SIMT serialization across types).
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from .. import obs
from ..errors import LaunchConfigError, LaunchError
from ..memory.address_space import strip_tag_array
from ..memory.heap import SCALAR_TYPES
from ..runtime.typesystem import TypeDescriptor
from .isa import (
    InstrClass,
    Opcode,
    ROLE_CONST_INDIRECTION,
    ROLE_DISPATCH_OVERHEAD,
    ROLE_INDIRECT_CALL,
)
from .stats import KernelStats
from .trace import MemoryTrace, role_id

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

WARP_SIZE = 32


def validate_num_threads(num_threads) -> int:
    """Check a launch's thread count before any execution starts.

    Accepts Python and numpy integers (but not bools); anything else,
    and any non-positive count, raises :class:`LaunchConfigError` with
    the offending value in the message.  Returns the count as ``int``.
    """
    if isinstance(num_threads, bool) or not isinstance(
            num_threads, (int, np.integer)):
        raise LaunchConfigError(
            f"num_threads must be an integer, got "
            f"{type(num_threads).__name__} ({num_threads!r})"
        )
    if num_threads <= 0:
        raise LaunchConfigError(
            f"num_threads must be positive, got {num_threads}"
        )
    return int(num_threads)


class ExecutionContext:
    """One warp's view of the machine during a kernel.

    Memory accesses are *charged* immediately (instruction counts,
    transaction counts) but their cache effects are captured in the
    warp's :class:`MemoryTrace` and replayed by the launcher's engine
    interleaved with the other warps resident on the same wave -- real
    warps do not run to completion atomically, and the inter-warp
    interference is exactly what makes the diverged vTable-pointer load
    expensive (section 1).
    """

    __slots__ = ("machine", "warp_id", "sm", "tid", "stats", "trace")

    def __init__(
        self,
        machine: "Machine",
        warp_id: int,
        sm: int,
        tid: np.ndarray,
        stats: KernelStats,
        trace: MemoryTrace = None,
    ):
        self.machine = machine
        self.warp_id = warp_id
        self.sm = sm
        self.tid = tid  # active lanes' global thread ids (dense)
        self.stats = stats
        # the warp's captured memory accesses (stage one of the pipeline)
        self.trace = trace if trace is not None else MemoryTrace(sm)

    # ------------------------------------------------------------------
    @property
    def lane_count(self) -> int:
        return len(self.tid)

    @property
    def heap(self):
        return self.machine.heap

    def subcontext(self, lane_sel: np.ndarray) -> "ExecutionContext":
        """Context for a subset of lanes (SIMT predication/serialization)."""
        return ExecutionContext(
            self.machine, self.warp_id, self.sm, self.tid[lane_sel],
            self.stats, trace=self.trace,
        )

    # ------------------------------------------------------------------
    # instruction charging
    # ------------------------------------------------------------------
    def alu(self, n: int = 1, op: Opcode = Opcode.IADD, role: str = None) -> None:
        """Charge ``n`` warp-wide compute instructions."""
        self.stats.add_instr(op.klass, self.lane_count, role, count=n)

    def ctrl(self, n: int = 1, op: Opcode = Opcode.BRA, role: str = None) -> None:
        """Charge ``n`` warp-wide control instructions."""
        self.stats.add_instr(op.klass, self.lane_count, role, count=n)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _charge_transactions(
        self, canonical: np.ndarray, width: int, store: bool, role: str
    ) -> None:
        stats = self.stats
        stats.add_instr(InstrClass.MEM, self.lane_count, role)
        tlb = self.machine.tlb
        if tlb is not None:
            stats.tlb_walks += tlb.translate_pages(self.sm, canonical)
        # coalescing and the global_*_transactions / per-role counters
        # are deferred to MemoryTrace.finalize (one batched pass per warp)
        self.trace.append_access(canonical, width, store, role_id(role))

    def load(self, addrs: np.ndarray, dtype: str = "u64", role: str = None,
             width: int = None) -> np.ndarray:
        """Charged global load: MMU translate, coalesce, cache, fetch."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        w = width if width is not None else SCALAR_TYPES[dtype][1]
        self._charge_transactions(canonical, w, store=False, role=role)
        return self.heap.gather(canonical, dtype)

    def store(self, addrs: np.ndarray, dtype: str, values, role: str = None) -> None:
        """Charged global store (write-through)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        w = SCALAR_TYPES[dtype][1]
        self._charge_transactions(canonical, w, store=True, role=role)
        vals = np.broadcast_to(np.asarray(values), (len(canonical),))
        self.heap.scatter(canonical, dtype, vals)

    def charged_load(self, addrs: np.ndarray, width: int, role: str = None) -> None:
        """Charge a load's cost without fetching (value read via peek)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        self._charge_transactions(canonical, width, store=False, role=role)

    def atomic(self, addrs: np.ndarray, dtype: str, values, op: str = "add",
               role: str = None) -> None:
        """Charged atomic read-modify-write (atomicAdd / atomicMin / atomicMax).

        Functionally exact under lane conflicts: lanes are applied in
        order, each seeing the previous lane's result -- what the
        hardware's serialised atomic units guarantee.  Charged as one
        memory instruction with store-like traffic.  When every lane
        targets a distinct address there is nothing to serialise, so
        the update runs as one vectorized gather/modify/scatter; the
        ordered per-lane loop is kept only for conflicting lanes.
        """
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        np_dtype, w = SCALAR_TYPES[dtype]
        self._charge_transactions(canonical, w, store=True, role=role)
        vals = np.broadcast_to(np.asarray(values, dtype=np_dtype),
                               (len(canonical),))
        heap = self.heap
        if op not in ("add", "min", "max"):
            raise ValueError(f"unsupported atomic op {op!r}")
        lanes = canonical.tolist()
        if lanes and len(set(lanes)) == len(lanes):
            old = heap.gather(canonical, dtype)
            if op == "add":
                new = (old + vals).astype(np_dtype, copy=False)
            elif op == "min":
                # np.where, not np.minimum: replicates min(old, v)
                new = np.where(vals < old, vals, old)
            else:
                new = np.where(vals > old, vals, old)
            heap.scatter(canonical, dtype, new)
            return
        for addr, v in zip(canonical, vals):
            old = heap.load(int(addr), dtype)
            if op == "add":
                new = np_dtype(old + v)
            elif op == "min":
                new = min(old, v)
            else:
                new = max(old, v)
            heap.store(int(addr), dtype, new)

    def atomic_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                     field: str, values, op: str = "add",
                     role: str = None) -> None:
        """Atomic RMW on an object member (atomicAdd(&obj->f, v))."""
        layout = self.machine.registry.layout(type_desc)
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        self.atomic(addrs, layout.dtype(field), values, op=op, role=role)

    def peek(self, addrs: np.ndarray, dtype: str = "u64") -> np.ndarray:
        """Uncharged functional read of already-canonical addresses.

        Used by lowering code that charged the access separately (e.g.
        the COAL tree walk charges one 64B load covering four words).
        """
        return self.heap.gather(np.asarray(addrs, dtype=np.uint64), dtype)

    # ------------------------------------------------------------------
    # object member access
    # ------------------------------------------------------------------
    def object_addrs(self, objptrs: np.ndarray) -> np.ndarray:
        """Canonicalise object pointers for a member dereference.

        Under the TypePointer software prototype the compiler inserted
        an AND to clear the tag bits before every member access
        (section 6.3); charge it.  Under the HW variant the MMU strips
        for free, so the (possibly tagged) pointer passes through.
        """
        a = np.asarray(objptrs, dtype=np.uint64)
        if self.machine.strategy.software_mask:
            self.alu(1, op=Opcode.AND, role=ROLE_DISPATCH_OVERHEAD)
            return strip_tag_array(a)
        return a

    def load_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                   field: str, role: str = None) -> np.ndarray:
        layout = self.machine.registry.layout(type_desc)
        # the allocator owns field placement: base + offset for the AoS
        # allocators (tag-transparent), field-major for SoA blocks
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        return self.load(addrs, layout.dtype(field), role=role)

    def store_field(self, objptrs: np.ndarray, type_desc: TypeDescriptor,
                    field: str, values) -> None:
        layout = self.machine.registry.layout(type_desc)
        addrs = self.machine.allocator.field_addrs(
            self.object_addrs(objptrs), layout, field
        )
        self.store(addrs, layout.dtype(field), values)

    # ------------------------------------------------------------------
    # SIMT control flow
    # ------------------------------------------------------------------
    def branch(self, cond: np.ndarray, then_fn=None, else_fn=None):
        """A two-way divergent branch with SIMT serialization.

        ``cond`` is a per-lane boolean; each taken direction executes
        once under a subcontext holding just its lanes (the SIMT stack
        behaviour).  Charges the reconvergence push (SSY), the compare
        and the branch; a fully converged branch executes only one
        side.  Returns (then_result, else_result).
        """
        cond = np.asarray(cond, dtype=bool)
        if len(cond) != self.lane_count:
            raise LaunchError(
                f"branch condition has {len(cond)} lanes, warp has "
                f"{self.lane_count}"
            )
        self.ctrl(1, op=Opcode.SSY)
        self.alu(1, op=Opcode.SETP)
        self.ctrl(1, op=Opcode.BRA)
        then_out = else_out = None
        if then_fn is not None and cond.any():
            then_out = then_fn(self.subcontext(cond), cond)
        if else_fn is not None and (~cond).any():
            else_out = else_fn(self.subcontext(~cond), ~cond)
        return then_out, else_out

    # ------------------------------------------------------------------
    # virtual dispatch
    # ------------------------------------------------------------------
    def vcall(self, objptrs: np.ndarray, static_type: TypeDescriptor,
              method: str, uniform: bool = False) -> Optional[np.ndarray]:
        """Execute ``obj->method()`` for every active lane.

        ``static_type`` plays the role of the pointer's static C++ type:
        it supplies the vTable slot index the compiler would embed.

        If the implementations return per-lane arrays (virtual getters),
        the groups' results are recombined into one lane-aligned array
        and returned; void methods return None.
        """
        ptrs = np.asarray(objptrs, dtype=np.uint64)
        if len(ptrs) != self.lane_count:
            raise LaunchError(
                f"vcall got {len(ptrs)} pointers for {self.lane_count} lanes"
            )
        if self.lane_count == 0:
            return None
        slot = static_type.slot_of(method)
        strategy = self.machine.strategy
        stats = self.stats
        stats.vfunc_calls += self.lane_count

        targets = strategy.resolve(self, ptrs, slot, uniform=uniform)
        unique_targets = np.unique(targets)
        stats.call_serializations += max(0, len(unique_targets) - 1)

        if not strategy.direct_call:
            # section 2: one constant-memory load translates the global
            # vFunc entry into the running kernel's instruction address
            stats.add_instr(InstrClass.MEM, self.lane_count,
                            ROLE_CONST_INDIRECTION)
            constmem = self.machine.constmem
            for code_addr in unique_targets:
                stats.const_accesses += 1
                if constmem.access(self.sm, int(code_addr) // 64):
                    stats.const_hits += 1

        arena = self.machine.arena
        result: Optional[np.ndarray] = None
        for code_addr in unique_targets:
            sel = targets == code_addr
            impl = arena.impl_of_code_addr(int(code_addr))
            sub = self.subcontext(sel)
            if strategy.direct_call:
                # Concord: direct branch to a statically-known body
                sub.ctrl(1, op=Opcode.BRA, role=ROLE_DISPATCH_OVERHEAD)
            else:
                # operation C of Figure 1a: indirect call
                sub.ctrl(1, op=Opcode.CALL, role=ROLE_INDIRECT_CALL)
            ret = impl(sub, ptrs[sel])
            sub.ctrl(1, op=Opcode.RET)
            if ret is not None:
                ret = np.asarray(ret)
                if result is None:
                    result = np.zeros(self.lane_count, dtype=ret.dtype)
                result[sel] = ret
        return result


def launch(machine: "Machine", kernel, num_threads: int) -> KernelStats:
    """Run ``kernel`` over ``num_threads`` threads, wave by wave.

    Warps are assigned to SMs round-robin (as thread blocks are on real
    hardware).  A *wave* is the set of warps concurrently resident on
    the whole chip (``num_sms x resident_warps_per_sm``).  Each wave is
    a capture -> replay round trip: its warps execute functionally,
    appending to per-warp :class:`MemoryTrace` records, and the
    machine's replay engine then pushes the wave's traces through the
    cache/DRAM model in the round-robin interleave (or reuses memoized
    counters -- see ``Machine.replay_wave``).
    """
    num_threads = validate_num_threads(num_threads)
    reg = obs.registry()
    with reg.span("machine.launch"):
        machine.strategy.prepare_launch()
        machine.constmem.begin_kernel()
        stats = KernelStats()
        num_warps = (num_threads + WARP_SIZE - 1) // WARP_SIZE
        num_sms = machine.hierarchy.num_sms
        wave_size = max(1, num_sms * machine.config.resident_warps_per_sm)

        # phase timings (capture -> coalesce -> replay) accumulate
        # locally and land in the registry once per launch
        perf = time.perf_counter
        t_capture = t_coalesce = t_replay = 0.0
        num_waves = 0

        for wave_start in range(0, num_warps, wave_size):
            num_waves += 1
            wave_end = min(wave_start + wave_size, num_warps)
            traces = []
            t0 = perf()
            for warp_id in range(wave_start, wave_end):
                lo = warp_id * WARP_SIZE
                hi = min(lo + WARP_SIZE, num_threads)
                tid = np.arange(lo, hi, dtype=np.int64)
                ctx = ExecutionContext(
                    machine, warp_id, warp_id % num_sms, tid, stats
                )
                kernel(ctx)
                tc = perf()
                traces.append(ctx.trace.finalize(stats))
                t_coalesce += perf() - tc
            t1 = perf()
            t_capture += t1 - t0
            machine.replay_wave(traces, stats)
            t_replay += perf() - t1

        from .timing import finalize_timing

        finalize_timing(stats, machine.config)
        reg.add_time("machine.capture", t_capture - t_coalesce,
                     count=num_waves)
        reg.add_time("machine.coalesce", t_coalesce, count=num_warps)
        reg.add_time("machine.replay", t_replay, count=num_waves)
    return stats

"""The SIMT executor: wave-wide functional + cost simulation.

A kernel is a Python callable ``kernel(ctx)``.  :func:`launch` calls it
once per *wave* (the warps resident on the chip at once): the
:class:`ExecutionContext` is a lane vector that may span many warps --
each lane's global thread id, warp (``tid // 32``) and SM (``warp %
num_sms``) -- and every operation runs as one numpy pass over all of
them.  It exposes the charged operations a lowered GPU program
performs: global loads and stores (which run through the MMU, the
coalescer and the cache hierarchy against *real* simulated addresses),
ALU and control instructions (counted into the Figure 7 buckets), and
-- the heart of the model -- ``vcall``, which asks the machine's
dispatch strategy to resolve a virtual call per Table 1 and then
executes each distinct target once (SIMT serialization across types).

Results are exactly those of the *per-warp executor*, which calls the
kernel once per warp, in warp order, and stays as the spec and the
fallback:

* every (sub)context counts its warps with an active lane once, when
  it is built, and each charge adds ``count x active warps`` warp
  instructions; thread instructions are counted per lane.  A context
  with no active lane charges and records nothing;
* ``vcall`` serializes per warp: one extra body execution per extra
  distinct target a warp holds, one constant-cache access per
  (warp, target);
* constant-cache and TLB events, and atomics, are logged during the
  kernel call and applied at the wave's end in per-warp program order
  (atomics lane by lane, through the same ordered ``ufunc.at`` the
  per-warp path uses), so shared SMs and float rounding see the
  sequential order;
* each access records its sectors under its warp, and the wave is
  coalesced in one ``MemoryTrace.finalize`` pass into the per-warp
  traces the replay engines take.

Stores take effect at once, so a warp reads its own writes.  What a
wave cannot reproduce is one warp reading or writing what *another*
warp of the same wave stored, or a plain load or store of a byte an
atomic updates (the atomic is deferred).  The executor detects it:
every load, peek, store and atomic logs its bytes and warp, and a wave
*conflicts* when a byte written by a plain store is touched by another
warp, or a byte updated by an atomic is touched by a plain load or
store (or by an atomic of another op or dtype).  A
conflicting wave, or one whose kernel call raises, is undone (its
stores restored, its stats, traces and logs dropped) and re-run warp by
warp; ``machine.wave_fallbacks`` counts those waves, split into
``machine.wave_fallback.conflict`` and ``.error``.  (The MMU's call and
page-touch bookkeeping is not rolled back: it feeds no result.)

Kernels reach simulated memory only through ``ctx`` (its loads, peeks,
stores and atomics), keep their effects there -- host-side state a
kernel mutates is seen by both attempts of a re-run wave -- and branch
per lane (``branch``, ``subcontext``, ``vcall``), never on a reduction
over ``ctx``'s lanes.
"""
from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from .. import obs
from ..errors import LaunchConfigError, LaunchError
from ..memory.address_space import PAGE_SIZE, strip_tag_array
from ..memory.heap import ATOMIC_UFUNCS, SCALAR_TYPES
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


def _active_warps(warps: np.ndarray) -> int:
    """Number of distinct warps among a context's lanes."""
    if len(warps) == 0:
        return 0
    return int(np.count_nonzero(np.bincount(warps)))


def _byte_index(addrs: np.ndarray, size: int) -> np.ndarray:
    """Every byte of per-lane ``size``-byte accesses, one row per lane."""
    return addrs[:, None] + np.arange(size, dtype=np.int64)


class _WarpCapture:
    """Side effects of one warp running alone: the per-warp spec.

    Everything applies at once -- TLB probes, constant-cache accesses,
    atomics -- and the warp's accesses go to its own trace.
    """

    def __init__(self, machine: "Machine", stats: KernelStats,
                 warp_id: int, num_sms: int):
        self.machine = machine
        self.stats = stats
        self.first_warp = warp_id
        self.num_sms = num_sms
        self.sm = warp_id % num_sms
        self.trace = MemoryTrace(self.sm)

    def access(self, canonical, warps, width, store, rid) -> None:
        tlb = self.machine.tlb
        if tlb is not None:
            self.stats.tlb_walks += tlb.translate_pages(self.sm, canonical)
        self.trace.append_access(canonical, width, store, rid)

    def const_access(self, warps, code_addrs) -> None:
        constmem, stats = self.machine.constmem, self.stats
        for code_addr in code_addrs.tolist():
            stats.const_accesses += 1
            if constmem.access(self.sm, code_addr // 64):
                stats.const_hits += 1

    def read(self, canonical, size, warps) -> None:
        pass

    def wrote(self, canonical, dtype, size, warps) -> None:
        pass

    def atomic(self, canonical, dtype, vals, op, warps) -> None:
        self.machine.heap.atomic(canonical, dtype, vals, op)


class _WaveCapture:
    """Side effects of one wave run in one kernel call.

    Stores apply at once, with an undo record; TLB and constant-cache
    events and atomics are logged for :meth:`commit`; every functional
    access is logged, by access size, for :meth:`conflicts`.
    """

    def __init__(self, machine: "Machine", first_warp: int,
                 num_warps: int, num_sms: int):
        self.machine = machine
        self.stats = KernelStats()
        self.first_warp = first_warp
        self.num_sms = num_sms
        self.warp_sms = [(first_warp + w) % num_sms
                         for w in range(num_warps)]
        self.trace = MemoryTrace.for_wave(self.warp_sms)
        self.tlb_log = []   # (pages, warps) per charged access
        self.const_log = []  # (warps, code addrs) per vcall
        self.undo = []      # (int64 addrs, dtype, old values) per store
        # size -> ([int64 addrs], [warps]) of plain loads and stores;
        # (op, dtype) -> ([int64 addrs], [values], [warps]) of atomics
        self.reads = {}
        self.writes = {}
        self.atomics = {}

    # -- capture ---------------------------------------------------------
    def access(self, canonical, warps, width, store, rid) -> None:
        if self.machine.tlb is not None:
            self.tlb_log.append((canonical // np.uint64(PAGE_SIZE), warps))
        self.trace.append_access(canonical, width, store, rid, warps)

    def const_access(self, warps, code_addrs) -> None:
        self.const_log.append((warps, code_addrs))

    def read(self, canonical, size, warps) -> None:
        _log(self.reads, size, canonical.astype(np.int64), warps)

    def wrote(self, canonical, dtype, size, warps) -> None:
        a = canonical.astype(np.int64)
        self.undo.append((a, dtype, self.machine.heap.gather(a, dtype)))
        _log(self.writes, size, a, warps)

    def atomic(self, canonical, dtype, vals, op, warps) -> None:
        if len(canonical):
            a = self.machine.heap.check_lanes(
                canonical, SCALAR_TYPES[dtype][1], "atomic")
            _log(self.atomics, (op, dtype), a, np.array(vals), warps)

    # -- wave end --------------------------------------------------------
    def conflicts(self) -> bool:
        """True when a warp-by-warp run could differ from this wave's:
        a byte one warp stored is touched by another warp, or a byte an
        atomic updates is touched by a plain load or store."""
        if not self.writes and not self.atomics:
            return False
        # every byte a store or an atomic writes, with an owner code:
        # w+1 for a store by warp w, -(g+1) for atomic group g (one
        # group per op and dtype)
        spans = [(np.concatenate(addrs), size, np.concatenate(warps)[:, None] + 1)
                 for size, (addrs, warps) in self.writes.items()]
        spans += [(np.concatenate(addrs), SCALAR_TYPES[dtype][1], -1 - g)
                  for g, ((_, dtype), (addrs, _, _))
                  in enumerate(self.atomics.items())]
        # sort the (byte, code) pairs as one int64 key each
        base = len(self.atomics)
        radix = len(self.warp_sms) + base + 2
        if self.machine.heap.brk >= np.iinfo(np.int64).max // radix:
            return True  # no room for the key: assume the worst
        keys = np.concatenate(
            [(_byte_index(a, size) * radix + (code + base)).ravel()
             for a, size, code in spans])
        keys.sort()
        written, codes = np.divmod(keys, radix)
        del keys
        codes -= base
        again = written[1:] == written[:-1]
        if (again & (codes[1:] != codes[:-1])).any():
            return True  # two warps' stores, or a store and an atomic
        first = np.concatenate([[True], ~again])
        written, codes = written[first], codes[first]
        # only loads starting within reach of a written byte can touch
        # one: a small per-thread filter table (aliased by address
        # modulo its size) picks them out for the exact check below
        near = _near_table()
        try:
            for a, size, _ in spans:
                near[_reach(a, size)] = True
            for size, (addrs, warps) in self.reads.items():
                a = np.concatenate(addrs)
                hit = near[a & _NEAR_MASK]
                if not hit.any():
                    continue
                touched = _byte_index(a[hit], size)
                at = np.minimum(np.searchsorted(written, touched),
                                len(written) - 1)
                mine = np.concatenate(warps)[hit][:, None] + 1
                if ((written[at] == touched) & (codes[at] != mine)).any():
                    return True
            return False
        finally:
            for a, size, _ in spans:
                near[_reach(a, size)] = False

    def rollback(self) -> None:
        """Restore every byte the wave's plain stores overwrote."""
        heap = self.machine.heap
        for a, dtype, old in reversed(self.undo):
            heap.scatter(a, dtype, old)

    def commit(self, stats: KernelStats) -> None:
        """Apply the logged events in per-warp program order and merge
        the wave's counters into the launch's."""
        machine, wave_stats = self.machine, self.stats
        warp_sms = self.warp_sms
        if self.const_log:
            warps = np.concatenate([w for w, _ in self.const_log])
            codes = np.concatenate([c for _, c in self.const_log])
            order = np.argsort(warps, kind="stable")
            constmem = machine.constmem
            hits = 0
            for w, code in zip(warps[order].tolist(),
                               codes[order].tolist()):
                hits += constmem.access(warp_sms[w], code // 64)
            wave_stats.const_accesses += len(order)
            wave_stats.const_hits += hits
        if self.tlb_log:
            pages = np.concatenate([p for p, _ in self.tlb_log])
            warps = np.concatenate([w for _, w in self.tlb_log])
            seq = np.repeat(np.arange(len(self.tlb_log)),
                            [len(p) for p, _ in self.tlb_log])
            order = np.lexsort((pages, seq, warps))
            pages, warps, seq = pages[order], warps[order], seq[order]
            cut = np.flatnonzero((warps[1:] != warps[:-1])
                                 | (seq[1:] != seq[:-1])) + 1
            tlb = machine.tlb
            for group in np.split(np.arange(len(pages)), cut):
                wave_stats.tlb_walks += tlb.probe(
                    warp_sms[warps[group[0]]],
                    np.unique(pages[group]).tolist())
        heap = machine.heap
        for (op, dtype), (addrs, vals, warps) in self.atomics.items():
            # (warp, op sequence, lane) order: a stable sort on the warp
            order = np.argsort(np.concatenate(warps), kind="stable")
            heap.atomic(np.concatenate(addrs)[order], dtype,
                        np.concatenate(vals)[order], op)
        stats.merge(wave_stats)


def _log(logs: dict, key, *columns) -> None:
    """Append one access's columns to ``logs[key]``."""
    lists = logs.get(key)
    if lists is None:
        lists = logs[key] = tuple([] for _ in columns)
    for column, values in zip(lists, columns):
        column.append(values)


#: widest functional access (bytes): an access starting more than this
#: many bytes before a written byte cannot reach it
_MAX_ACCESS = max(size for _, size in SCALAR_TYPES.values())

#: the conflict check's filter table: one flag per address modulo its
#: size, all clear between checks; one table per thread
_NEAR_MASK = (1 << 20) - 1
_NEAR = threading.local()


def _reach(addrs: np.ndarray, size: int) -> np.ndarray:
    """Filter slots of every start address from which an access can
    touch one of the ``size``-byte spans at ``addrs``."""
    return _byte_index(addrs - (_MAX_ACCESS - 1),
                       size + _MAX_ACCESS - 1) & _NEAR_MASK


def _near_table() -> np.ndarray:
    table = getattr(_NEAR, "table", None)
    if table is None:
        table = _NEAR.table = np.zeros(_NEAR_MASK + 1, dtype=bool)
    return table


class ExecutionContext:
    """A lane vector's view of the machine during a kernel.

    The lanes may span many warps of one wave (see the module
    docstring); results are as if the warps ran one at a time.  Memory
    accesses are *charged* immediately (instruction counts) but their
    cache effects are captured per warp and replayed by the launcher's
    engine interleaved with the other warps resident on the same wave
    -- real warps do not run to completion atomically, and the
    inter-warp interference is exactly what makes the diverged
    vTable-pointer load expensive (section 1).
    """

    __slots__ = ("machine", "tid", "stats", "_warps", "_num_warps", "_cap")

    def __init__(self, machine: "Machine", tid: np.ndarray,
                 warps: np.ndarray, stats: KernelStats, cap):
        self.machine = machine
        self.tid = tid  # active lanes' global thread ids (dense)
        self.stats = stats
        self._warps = warps  # each lane's warp index within the wave
        self._num_warps = _active_warps(warps)
        self._cap = cap

    # ------------------------------------------------------------------
    @property
    def lane_count(self) -> int:
        return len(self.tid)

    @property
    def warp_id(self) -> np.ndarray:
        """Each active lane's global warp id (``tid // 32``)."""
        return self._warps + self._cap.first_warp

    @property
    def sm(self) -> np.ndarray:
        """Each active lane's SM (warps are dealt round-robin)."""
        return self.warp_id % self._cap.num_sms

    def subcontext(self, lane_sel: np.ndarray) -> "ExecutionContext":
        """Context for a subset of lanes (SIMT predication/serialization)."""
        return ExecutionContext(
            self.machine, self.tid[lane_sel], self._warps[lane_sel],
            self.stats, self._cap,
        )

    # ------------------------------------------------------------------
    # instruction charging
    # ------------------------------------------------------------------
    def _charge(self, klass: InstrClass, n: int, role: Optional[str]) -> None:
        """``n`` instructions on every active warp."""
        self.stats.add_instr(klass, len(self.tid), role, n, self._num_warps)

    def alu(self, n: int = 1, op: Opcode = Opcode.IADD, role: str = None) -> None:
        """Charge ``n`` warp-wide compute instructions."""
        self._charge(op.klass, n, role)

    def ctrl(self, n: int = 1, op: Opcode = Opcode.BRA, role: str = None) -> None:
        """Charge ``n`` warp-wide control instructions."""
        self._charge(op.klass, n, role)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _charge_transactions(
        self, canonical: np.ndarray, width: int, store: bool, role: str
    ) -> None:
        if not self._num_warps:
            return
        self._charge(InstrClass.MEM, 1, role)
        # TLB probes and coalescing (the global_*_transactions and
        # per-role counters) are settled per warp by the capture
        self._cap.access(canonical, self._warps, width, store, role_id(role))

    def load(self, addrs: np.ndarray, dtype: str = "u64", role: str = None,
             width: int = None) -> np.ndarray:
        """Charged global load: MMU translate, coalesce, cache, fetch."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        size = SCALAR_TYPES[dtype][1]
        w = width if width is not None else size
        self._charge_transactions(canonical, w, store=False, role=role)
        self._cap.read(canonical, size, self._warps)
        return self.machine.heap.gather(canonical, dtype)

    def store(self, addrs: np.ndarray, dtype: str, values, role: str = None) -> None:
        """Charged global store (write-through)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        size = SCALAR_TYPES[dtype][1]
        self._charge_transactions(canonical, size, store=True, role=role)
        vals = np.broadcast_to(np.asarray(values), (len(canonical),))
        self._cap.wrote(canonical, dtype, size, self._warps)
        self.machine.heap.scatter(canonical, dtype, vals)

    def charged_load(self, addrs: np.ndarray, width: int, role: str = None) -> None:
        """Charge a load's cost without fetching (value read via peek)."""
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        self._charge_transactions(canonical, width, store=False, role=role)

    def atomic(self, addrs: np.ndarray, dtype: str, values, op: str = "add",
               role: str = None) -> None:
        """Charged atomic read-modify-write (atomicAdd / atomicMin / atomicMax).

        Functionally exact under lane conflicts: lanes apply in order,
        each seeing the previous lane's result -- what the hardware's
        serialised atomic units guarantee (``Heap.atomic``).  Charged as
        one memory instruction with store-like traffic.  A wave defers
        the update to its end, applying every warp's atomics in warp
        order.
        """
        if op not in ATOMIC_UFUNCS:
            raise ValueError(f"unsupported atomic op {op!r}")
        a = np.asarray(addrs, dtype=np.uint64)
        canonical = self.machine.mmu.translate(a)
        np_dtype, size = SCALAR_TYPES[dtype]
        self._charge_transactions(canonical, size, store=True, role=role)
        vals = np.broadcast_to(np.asarray(values, dtype=np_dtype),
                               (len(canonical),))
        self._cap.atomic(canonical, dtype, vals, op, self._warps)

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
        a = np.asarray(addrs, dtype=np.uint64)
        self._cap.read(a, SCALAR_TYPES[dtype][1], self._warps)
        return self.machine.heap.gather(a, dtype)

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
        behaviour), so a warp whose lanes all agree runs only one side.
        Charges the reconvergence push (SSY), the compare and the
        branch.  Returns (then_result, else_result).
        """
        cond = np.asarray(cond, dtype=bool)
        if len(cond) != self.lane_count:
            raise LaunchError(
                f"branch condition has {len(cond)} lanes, context has "
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
        unique_targets, lane_target = np.unique(targets, return_inverse=True)
        # each warp runs each of its distinct targets once: the
        # (warp, target) pairs, sorted by warp then target
        n_targets = len(unique_targets)
        pairs = np.unique(self._warps * n_targets + lane_target)
        stats.call_serializations += len(pairs) - self._num_warps

        if not strategy.direct_call:
            # section 2: one constant-memory load translates the global
            # vFunc entry into the running kernel's instruction address
            self._charge(InstrClass.MEM, 1, ROLE_CONST_INDIRECTION)
            self._cap.const_access(pairs // n_targets,
                                   unique_targets[pairs % n_targets])

        arena = self.machine.arena
        result: Optional[np.ndarray] = None
        for k, code_addr in enumerate(unique_targets.tolist()):
            sel = lane_target == k
            impl = arena.impl_of_code_addr(code_addr)
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


def _run_warps(machine: "Machine", kernel, stats: KernelStats,
               first: int, last: int, num_threads: int, num_sms: int,
               finalized: list) -> list:
    """The per-warp executor: warps ``first..last-1`` one at a time.

    Returns their finalized traces; appends each finalize's duration to
    ``finalized``.
    """
    perf = time.perf_counter
    traces = []
    for warp_id in range(first, last):
        lo = warp_id * WARP_SIZE
        hi = min(lo + WARP_SIZE, num_threads)
        cap = _WarpCapture(machine, stats, warp_id, num_sms)
        kernel(ExecutionContext(
            machine, np.arange(lo, hi, dtype=np.int64),
            np.zeros(hi - lo, dtype=np.int64), stats, cap))
        tc = perf()
        traces.append(cap.trace.finalize(stats))
        finalized.append(perf() - tc)
    return traces


def _run_wave(machine: "Machine", kernel, stats: KernelStats,
              first: int, last: int, num_threads: int, num_sms: int,
              finalized: list) -> Optional[list]:
    """Warps ``first..last-1`` in one kernel call.

    Returns their per-warp traces, or None -- with the heap as it was
    -- when the wave raised or conflicts (see the module docstring).
    """
    cap = _WaveCapture(machine, first, last - first, num_sms)
    tid = np.arange(first * WARP_SIZE, min(last * WARP_SIZE, num_threads),
                    dtype=np.int64)
    try:
        kernel(ExecutionContext(machine, tid, tid // WARP_SIZE - first,
                                cap.stats, cap))
    except Exception:
        cap.rollback()
        obs.count("machine.wave_fallback.error")
        return None
    tc = time.perf_counter()
    wave = cap.trace.finalize(cap.stats)
    finalized.append(time.perf_counter() - tc)
    if cap.conflicts():
        cap.rollback()
        obs.count("machine.wave_fallback.conflict")
        return None
    cap.commit(stats)
    return wave.warps


def launch(machine: "Machine", kernel, num_threads: int) -> KernelStats:
    """Run ``kernel`` over ``num_threads`` threads, wave by wave.

    Warps are assigned to SMs round-robin (as thread blocks are on real
    hardware).  A *wave* is the set of warps concurrently resident on
    the whole chip (``num_sms x resident_warps_per_sm``).  Each wave is
    a capture -> replay round trip: the kernel runs once over the whole
    wave (or, if that wave conflicts or raises, once per warp), its
    accesses are coalesced into per-warp :class:`MemoryTrace` records,
    and the machine's replay engine then pushes the wave's traces
    through the cache/DRAM model in the round-robin interleave (or
    reuses memoized counters -- see ``Machine.replay_wave``).
    """
    num_threads = validate_num_threads(num_threads)
    reg = obs.registry()
    with reg.span("machine.launch"):
        # phase timings (capture -> coalesce -> replay) accumulate
        # locally and land in the registry once per launch; capture is
        # the rest of the launch, so the three phases cover all of it
        perf = time.perf_counter
        t_start = perf()
        t_replay = 0.0
        finalized = []
        machine.strategy.prepare_launch()
        machine.constmem.begin_kernel()
        stats = KernelStats()
        num_warps = (num_threads + WARP_SIZE - 1) // WARP_SIZE
        num_sms = machine.hierarchy.num_sms
        wave_size = max(1, num_sms * machine.config.resident_warps_per_sm)
        num_waves = 0

        for first in range(0, num_warps, wave_size):
            num_waves += 1
            last = min(first + wave_size, num_warps)
            traces = None
            if last - first > 1:
                traces = _run_wave(machine, kernel, stats, first, last,
                                   num_threads, num_sms, finalized)
                if traces is None:
                    obs.count("machine.wave_fallbacks")
            if traces is None:
                traces = _run_warps(machine, kernel, stats, first, last,
                                    num_threads, num_sms, finalized)
            t1 = perf()
            machine.replay_wave(traces, stats)
            t_replay += perf() - t1

        from .timing import finalize_timing

        finalize_timing(stats, machine.config)
        t_coalesce = sum(finalized)
        reg.add_time("machine.capture",
                     perf() - t_start - t_coalesce - t_replay,
                     count=num_waves)
        reg.add_time("machine.coalesce", t_coalesce, count=len(finalized))
        reg.add_time("machine.replay", t_replay, count=num_waves)
    return stats

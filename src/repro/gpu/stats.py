"""Per-kernel and per-run statistics (the simulated NVProf counters)."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .isa import InstrClass


@dataclass
class KernelStats:
    """Counters collected while executing one kernel launch.

    Warp-level instruction counts are bucketed by :class:`InstrClass`
    (Figure 7); memory-system counters are in 32B sectors, matching
    NVProf's ``gld_transactions`` (Figure 8); cache counters give the
    L1/L2 hit rates of Figure 9.
    """

    # dynamic warp instructions by class
    warp_instrs: Dict[InstrClass, int] = field(
        default_factory=lambda: {c: 0 for c in InstrClass}
    )
    # thread-level instruction count (denominator for vFuncPKI, Table 2)
    thread_instrs: int = 0
    # dynamic virtual function calls (thread-level; numerator for vFuncPKI)
    vfunc_calls: int = 0
    # dispatch serialization: extra executions of a call body because a
    # warp held several types (SIMD-utilization loss, Figure 12b)
    call_serializations: int = 0

    # memory system (32B sectors)
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    l1_accesses: int = 0
    l1_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    dram_row_misses: int = 0
    # per-kernel constant-memory indirection (section 2): dedicated
    # constant-cache accesses, not part of the global-load counters
    const_accesses: int = 0
    const_hits: int = 0
    # page-table walks taken (only populated when GPUConfig.model_tlb)
    tlb_walks: int = 0

    # dispatch-role attribution: role -> sector count, for Figure 1b
    role_transactions: Dict[str, int] = field(default_factory=dict)
    role_instrs: Dict[str, int] = field(default_factory=dict)
    # role -> [l1_hit, l2_hit, dram] sector counts: lets the Figure 1b
    # harness weight each dispatch operation by where its data came from
    role_levels: Dict[str, list] = field(default_factory=dict)

    # filled by the timing model
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0

    # ------------------------------------------------------------------
    @property
    def total_warp_instrs(self) -> int:
        return sum(self.warp_instrs.values())

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def const_hit_rate(self) -> float:
        return self.const_hits / self.const_accesses if self.const_accesses else 0.0

    @property
    def vfunc_pki(self) -> float:
        """Dynamic virtual function calls per thousand thread instructions."""
        if not self.thread_instrs:
            return 0.0
        return 1000.0 * self.vfunc_calls / self.thread_instrs

    # ------------------------------------------------------------------
    def add_instr(self, klass: InstrClass, active_lanes: int,
                  role: str = None, count: int = 1, warps: int = 1) -> None:
        """Charge ``count`` identical instructions on each of ``warps``
        warps, which hold ``active_lanes`` active lanes between them."""
        n = count * warps
        self.warp_instrs[klass] += n
        self.thread_instrs += active_lanes * count
        if role is not None and n:
            self.role_instrs[role] = self.role_instrs.get(role, 0) + n

    def add_role_transactions(self, role: str, n: int) -> None:
        if role is not None and n:
            self.role_transactions[role] = self.role_transactions.get(role, 0) + n

    def add_role_levels(self, role: str, l1: int, l2: int, dram: int) -> None:
        if role is not None:
            entry = self.role_levels.setdefault(role, [0, 0, 0])
            entry[0] += l1
            entry[1] += l2
            entry[2] += dram

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another launch's counters into this one."""
        for klass, n in other.warp_instrs.items():
            self.warp_instrs[klass] += n
        self.thread_instrs += other.thread_instrs
        self.vfunc_calls += other.vfunc_calls
        self.call_serializations += other.call_serializations
        self.global_load_transactions += other.global_load_transactions
        self.global_store_transactions += other.global_store_transactions
        self.l1_accesses += other.l1_accesses
        self.l1_hits += other.l1_hits
        self.l2_accesses += other.l2_accesses
        self.l2_hits += other.l2_hits
        self.dram_accesses += other.dram_accesses
        self.dram_row_misses += other.dram_row_misses
        self.const_accesses += other.const_accesses
        self.const_hits += other.const_hits
        self.tlb_walks += other.tlb_walks
        for role, n in other.role_transactions.items():
            self.role_transactions[role] = self.role_transactions.get(role, 0) + n
        for role, n in other.role_instrs.items():
            self.role_instrs[role] = self.role_instrs.get(role, 0) + n
        for role, levels in other.role_levels.items():
            entry = self.role_levels.setdefault(role, [0, 0, 0])
            for i in range(3):
                entry[i] += levels[i]
        self.cycles += other.cycles
        self.compute_cycles += other.compute_cycles
        self.memory_cycles += other.memory_cycles

    def summary(self) -> str:
        """Human-readable one-launch summary."""
        mix = "/".join(
            f"{c.value}={self.warp_instrs[c]}" for c in InstrClass
        )
        return (
            f"cycles={self.cycles:.0f} warp_instrs[{mix}] "
            f"gld={self.global_load_transactions} "
            f"L1={self.l1_hit_rate:.1%} L2={self.l2_hit_rate:.1%} "
            f"vfuncPKI={self.vfunc_pki:.1f}"
        )

"""GPU TLB hierarchy for unified-memory address translation.

SharedOA's whole premise is CPU/GPU unified virtual memory (section 4),
which makes translation machinery part of the substrate: every global
access translates its pages through a per-SM L1 TLB backed by a shared
L2 TLB; double misses cost a page-table walk.

Scattered object layouts touch more pages per warp than packed ones,
so the TLB is another channel through which the CUDA allocator loses
to SharedOA.  The model is **off by default** (``GPUConfig.model_tlb``)
so the headline calibration is unaffected; the ablation benchmark
turns it on and reports how much it amplifies the allocator gap.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..memory.address_space import PAGE_SIZE


@dataclass
class TLBStats:
    l1_accesses: int = 0
    l1_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    walks: int = 0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def walk_rate(self) -> float:
        return self.walks / self.l1_accesses if self.l1_accesses else 0.0

    def reset(self) -> None:
        self.l1_accesses = 0
        self.l1_hits = 0
        self.l2_accesses = 0
        self.l2_hits = 0
        self.walks = 0


class _LRUSet:
    """Fully-associative LRU translation buffer."""

    def __init__(self, entries: int):
        self.entries = entries
        self._map: OrderedDict = OrderedDict()

    def access(self, page: int) -> bool:
        if page in self._map:
            self._map.move_to_end(page)
            return True
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[page] = True
        return False

    def flush(self) -> None:
        self._map.clear()


class TLBHierarchy:
    """Per-SM L1 TLBs over a shared L2 TLB."""

    def __init__(self, num_sms: int, l1_entries: int = 32,
                 l2_entries: int = 512):
        self.num_sms = num_sms
        self.l1s = [_LRUSet(l1_entries) for _ in range(num_sms)]
        self.l2 = _LRUSet(l2_entries)
        self.stats = TLBStats()

    # ------------------------------------------------------------------
    def translate_pages(self, sm: int, addrs: np.ndarray) -> int:
        """Probe the TLBs for one warp access; returns page walks taken.

        Page extraction and uniquing are batched (one numpy pass over
        the warp's addresses); only the stateful LRU probes walk the
        handful of distinct pages.

        ``sm`` must name a real SM: wrapping an out-of-range id would
        silently alias two SMs' L1 TLB state and corrupt the ablation's
        hit rates.  Addresses are coerced to ``uint64`` before the page
        divide -- a signed trace dtype would otherwise promote the
        divide to float64 and miscompute pages above 2**53.
        """
        if not 0 <= sm < self.num_sms:
            raise IndexError(
                f"SM id {sm} out of range for {self.num_sms} SMs"
            )
        a = np.asarray(addrs).astype(np.uint64, copy=False)
        return self.probe(sm, np.unique(a // np.uint64(PAGE_SIZE)).tolist())

    def probe(self, sm: int, pages) -> int:
        """Probe distinct ``pages`` in order on SM ``sm``'s L1 TLB and the
        shared L2 TLB; returns the page walks taken."""
        stats = self.stats
        l1 = self.l1s[sm]
        l2 = self.l2
        walks = 0
        stats.l1_accesses += len(pages)
        for p in pages:
            if l1.access(p):
                stats.l1_hits += 1
                continue
            stats.l2_accesses += 1
            if l2.access(p):
                stats.l2_hits += 1
                continue
            stats.walks += 1
            walks += 1
        return walks

    def flush(self) -> None:
        for l1 in self.l1s:
            l1.flush()
        self.l2.flush()

    def reset_stats(self) -> None:
        self.stats.reset()

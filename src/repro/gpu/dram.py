"""DRAM (HBM2) accounting.

The cache hierarchy already counts the sectors that reach DRAM; this
module adds byte accounting, a simple efficiency report so ablation
benches can show how much of the paper's win is DRAM traffic, and the
vectorized row-buffer pass the :class:`~repro.gpu.replay.FusedEngine`
runs over each wave's DRAM miss stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .coalescing import SECTOR_BYTES


def account_rows(
    line_addrs: np.ndarray,
    row_bytes: int,
    num_banks: int,
    open_rows: Dict[int, int],
) -> Tuple[int, int]:
    """Vectorized row-buffer accounting over an ordered DRAM access stream.

    ``line_addrs`` holds the 128B-line byte addresses whose sectors
    reached DRAM, one entry per transaction, in service order.  Banks
    are independent, so each bank's subsequence is compared against its
    own predecessor in one shifted-comparison pass; only the first
    access per bank consults (and the last updates) the persistent
    ``open_rows`` state.  Returns ``(row_hits, row_misses)`` --
    bit-identical to feeding the stream through
    ``MemoryHierarchy._dram_access`` one transaction at a time.
    """
    if len(line_addrs) == 0:
        return 0, 0
    rows = (line_addrs // np.uint64(row_bytes)).astype(np.int64)
    banks = rows % num_banks
    order = np.argsort(banks, kind="stable")
    rb = banks[order]
    rr = rows[order]
    miss = np.empty(len(rr), dtype=bool)
    miss[1:] = rr[1:] != rr[:-1]
    miss[0] = True
    starts = np.flatnonzero(np.concatenate([[True], rb[1:] != rb[:-1]]))
    ends = np.concatenate([starts[1:], [len(rb)]])
    for s, e in zip(starts.tolist(), ends.tolist()):
        bank = int(rb[s])
        miss[s] = open_rows.get(bank) != int(rr[s])
        open_rows[bank] = int(rr[e - 1])
    n_miss = int(np.count_nonzero(miss))
    return len(rr) - n_miss, n_miss


@dataclass
class DRAMModel:
    """Aggregates DRAM traffic for one run."""

    sectors: int = 0

    def add_sectors(self, n: int) -> None:
        self.sectors += n

    @property
    def bytes_transferred(self) -> int:
        return self.sectors * SECTOR_BYTES

    def utilisation(self, cycles: float, sectors_per_cycle: float) -> float:
        """Fraction of peak DRAM bandwidth consumed over ``cycles``."""
        if cycles <= 0:
            return 0.0
        return min(1.0, self.sectors / (cycles * sectors_per_cycle))

    def reset(self) -> None:
        self.sectors = 0

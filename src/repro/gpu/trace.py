"""The memory-trace intermediate representation of the two-stage pipeline.

Execution is split into *capture* and *replay*: warps run functionally
and append their post-coalescing memory transactions to a
:class:`MemoryTrace` (one per warp; a wave captured in one kernel call
fills one wave trace whose ``finalize`` splits it into those per-warp
traces), and a pluggable replay engine
(:mod:`repro.gpu.replay`) later pushes one whole wave of traces through
the cache/DRAM model in the round-robin interleave the simulator has
always used.

The trace is a struct-of-arrays record (DynaSOAr's layout lesson,
applied to the simulator itself): parallel numpy arrays of line
addresses and sector masks at transaction granularity, plus per-access
arrays (transaction count, store flag, role id) that preserve the
access boundaries the wave interleave is defined over.  Keeping the IR
columnar makes the replay engines able to batch, and makes a trace
hashable in one pass (the per-launch replay memo in
``repro.harness.runner``).
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

#: popcount over the 16 possible 4-sector masks (indexable by mask).
POPCOUNT4 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)

# ----------------------------------------------------------------------
# role interning: traces store small integer ids, not strings
# ----------------------------------------------------------------------
_ROLE_IDS = {None: 0}
_ROLE_NAMES: List[Optional[str]] = [None]


def role_id(role: Optional[str]) -> int:
    """Intern a dispatch-role string (None -> 0); process-stable."""
    rid = _ROLE_IDS.get(role)
    if rid is None:
        rid = len(_ROLE_NAMES)
        _ROLE_IDS[role] = rid
        _ROLE_NAMES.append(role)
    return rid


def role_name(rid: int) -> Optional[str]:
    """Inverse of :func:`role_id`."""
    return _ROLE_NAMES[rid]


_U64_SECTOR = np.uint64(32)
_U64_SPL = np.uint64(4)          # sectors per 128B line
_U64_LINE = np.uint64(128)
#: single-sector bit per in-line sector index
_BIT4 = np.array([1, 2, 4, 8], dtype=np.uint8)


class MemoryTrace:
    """One warp's charged memory accesses, in program order.

    Capture is cheap on purpose: each access appends its lanes' raw
    sector indices (a couple of numpy ops) and coalescing is deferred
    to ``finalize``, which runs ONE segmented sort/dedup pass over the
    whole warp's sectors instead of a ``np.unique`` per access -- the
    batched form of ``coalescing.coalesce``.  Finalize also settles the
    deferred transaction counters (``global_*_transactions`` and
    per-role sector attribution) into the launch's ``KernelStats``;
    totals are identical to charging per access, just accumulated once.

    Frozen columns:

    ``line``/``mask``
        per-transaction 128B line byte-address (uint64) and 4-sector
        bitmask (uint8), in coalescer order (ascending line) within
        each access;
    ``txn_count``/``txn_start``
        per-access transaction counts and exclusive-prefix offsets into
        the transaction arrays (CSR layout);
    ``store``/``role``
        per-access store flag (bool) and interned role id (int16);
    ``sm``
        the SM whose L1 this warp's traffic targets (scalar -- a warp
        never migrates).
    """

    __slots__ = (
        "sm", "line", "mask", "txn_count", "txn_start", "store", "role",
        "warps", "_sectors", "_seclens", "_stores", "_roles",
        "_lane_warps", "_warp_sms",
    )

    def __init__(self, sm: int):
        self.sm = sm
        self._sectors: List[np.ndarray] = []
        self._seclens: List[int] = []
        self._stores: List[bool] = []
        self._roles: List[int] = []
        self._lane_warps = None
        self._warp_sms = None

    @classmethod
    def for_wave(cls, warp_sms: List[int]) -> "MemoryTrace":
        """A capture buffer for a whole wave, ``warp_sms[w]`` being the
        SM of the wave's ``w``-th warp.  Every access names each lane's
        warp; :meth:`finalize` then coalesces the wave in one pass and
        leaves one per-warp trace per warp in :attr:`warps`."""
        trace = cls(None)
        trace._lane_warps = []
        trace._warp_sms = warp_sms
        return trace

    @classmethod
    def _frozen(cls, sm, line, mask, txn_count, txn_start, store,
                role) -> "MemoryTrace":
        trace = cls.__new__(cls)
        trace.sm = sm
        trace.line, trace.mask = line, mask
        trace.txn_count, trace.txn_start = txn_count, txn_start
        trace.store, trace.role = store, role
        trace._sectors = trace._lane_warps = trace._warp_sms = None
        trace._seclens = trace._stores = trace._roles = None
        return trace

    # ------------------------------------------------------------------
    def append_access(self, canonical: np.ndarray, width: int,
                      store: bool, rid: int, warps=None) -> None:
        """Record one charged access (canonical lane addresses).

        A wave trace also takes ``warps``, each lane's warp index in the
        wave; the access then counts once for every warp it names.
        """
        a = canonical.astype(np.uint64, copy=False)
        sectors = a // _U64_SECTOR
        if width > 1:
            last = (a + np.uint64(width - 1)) // _U64_SECTOR
            if not (sectors == last).all():
                # accesses straddling a sector boundary touch both
                sectors = np.concatenate([sectors, last])
                if warps is not None:
                    warps = np.concatenate([warps, warps])
        self._sectors.append(sectors)
        if warps is not None:
            self._lane_warps.append(warps)
        self._seclens.append(len(sectors))
        self._stores.append(store)
        self._roles.append(rid)

    def finalize(self, stats=None) -> "MemoryTrace":
        """Coalesce the capture buffers into columnar arrays.

        When ``stats`` is given, also credits the deferred transaction
        counters (sector totals per access, split by store flag and
        role) -- the batched equivalent of what the executor used to do
        per access.  A wave trace is coalesced in the same single pass
        and also split into :attr:`warps`; its own columns then hold
        every warp's accesses, warp after warp.
        """
        if self._lane_warps is not None:
            return self._finalize_wave(stats)
        n_acc = len(self._seclens)
        self.store = np.asarray(self._stores, dtype=bool)
        self.role = np.asarray(self._roles, dtype=np.int16)
        total = sum(self._seclens)
        if total == 0:
            self.line = _EMPTY_U64
            self.mask = _EMPTY_U8
            self.txn_count = np.zeros(n_acc, dtype=np.int64)
            self.txn_start = np.zeros(n_acc, dtype=np.int64)
            self._sectors = None
            self._seclens = self._stores = self._roles = None
            return self

        sectors = np.concatenate(self._sectors)
        lens = np.asarray(self._seclens, dtype=np.int64)
        acc = np.repeat(np.arange(n_acc, dtype=np.int64), lens)
        # sort sectors within each access (acc is the primary key and
        # already sorted, so the permuted acc column equals acc itself)
        s_sorted = sectors[np.lexsort((sectors, acc))]
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        keep[1:] = (s_sorted[1:] != s_sorted[:-1]) | (acc[1:] != acc[:-1])
        sec_u = s_sorted[keep]
        acc_u = acc[keep]

        line_of = sec_u // _U64_SPL
        new_txn = np.empty(len(sec_u), dtype=bool)
        new_txn[0] = True
        new_txn[1:] = (line_of[1:] != line_of[:-1]) | (acc_u[1:] != acc_u[:-1])
        starts = np.flatnonzero(new_txn)
        self.line = line_of[starts] * _U64_LINE
        bits = _BIT4[(sec_u % _U64_SPL).astype(np.intp)]
        self.mask = np.bitwise_or.reduceat(bits, starts)
        self.txn_count = np.bincount(acc_u[starts], minlength=n_acc)
        self.txn_start = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(self.txn_count)]
        )[:-1]

        if stats is not None:
            self._credit(stats, np.bincount(acc_u, minlength=n_acc))

        self._sectors = None
        self._seclens = self._stores = self._roles = None
        return self

    def _credit(self, stats, sec_per_acc: np.ndarray) -> None:
        """Settle the deferred transaction counters into ``stats``."""
        st = self.store
        gst = int(sec_per_acc[st].sum())
        stats.global_store_transactions += gst
        stats.global_load_transactions += int(sec_per_acc.sum()) - gst
        load_roles = self.role[~st]
        if len(load_roles) and load_roles.max() > 0:
            by_role = np.bincount(load_roles, weights=sec_per_acc[~st])
            for rid in range(1, len(by_role)):
                n = int(by_role[rid])
                if n:
                    stats.add_role_transactions(role_name(rid), n)

    def _finalize_wave(self, stats) -> "MemoryTrace":
        """One coalesce pass over a wave: sort every sector by (warp,
        access, sector) and emit each warp's columns exactly as that
        warp's own trace would have finalized them."""
        warp_sms = self._warp_sms
        lens = np.asarray(self._seclens, dtype=np.int64)
        total = int(lens.sum())
        if total:
            n_ops = len(lens)
            # one int64 key per sector: (warp, op) above the sector bits,
            # built and sorted in place (a wave's buffers are large)
            key = np.concatenate(self._lane_warps) * n_ops
            key += np.repeat(np.arange(n_ops, dtype=np.int64), lens)
            sectors = np.concatenate(self._sectors).view(np.int64)
            self._sectors = self._lane_warps = None
            sec_bits = int(sectors.max()).bit_length()
            if sec_bits + (len(warp_sms) * n_ops).bit_length() < 64:
                key <<= sec_bits
                key |= sectors
                del sectors
                key.sort()
                s_sorted = (key & ((1 << sec_bits) - 1)).view(np.uint64)
                key >>= sec_bits
            else:
                order = np.lexsort((sectors, key))
                key, s_sorted = key[order], sectors[order].view(np.uint64)
                del order, sectors
            new_acc = np.empty(total, dtype=bool)
            new_acc[0] = True
            np.not_equal(key[1:], key[:-1], out=new_acc[1:])
            acc_warp, acc_op = np.divmod(key[new_acc], n_ops)
            del key
            keep = new_acc.copy()
            keep[1:] |= s_sorted[1:] != s_sorted[:-1]
            sec_u = s_sorted[keep]
            del s_sorted
            acc_u = np.cumsum(new_acc[keep]) - 1
        else:
            sec_u = _EMPTY_U64
            acc_u = acc_op = acc_warp = np.empty(0, dtype=np.int64)
        n_acc = len(acc_op)
        self.store = np.asarray(self._stores, dtype=bool)[acc_op]
        self.role = np.asarray(self._roles, dtype=np.int16)[acc_op]

        line_of = sec_u // _U64_SPL
        new_txn = np.empty(len(sec_u), dtype=bool)
        new_txn[:1] = True
        new_txn[1:] = (line_of[1:] != line_of[:-1]) | (acc_u[1:] != acc_u[:-1])
        starts = np.flatnonzero(new_txn)
        self.line = line_of[starts] * _U64_LINE
        bits = _BIT4[(sec_u % _U64_SPL).astype(np.intp)]
        self.mask = (np.bitwise_or.reduceat(bits, starts) if len(starts)
                     else _EMPTY_U8)
        self.txn_count = np.bincount(acc_u[starts], minlength=n_acc)
        ends = np.cumsum(self.txn_count)
        self.txn_start = ends - self.txn_count
        if stats is not None:
            self._credit(stats, np.bincount(acc_u, minlength=n_acc))

        # per-warp split: accesses are grouped by warp, in warp order
        acc_bounds = np.searchsorted(
            acc_warp, np.arange(len(warp_sms) + 1)).tolist()
        txn_bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), ends])[acc_bounds].tolist()
        self.warps = [
            MemoryTrace._frozen(
                sm, self.line[t0:t1], self.mask[t0:t1],
                self.txn_count[a0:a1], self.txn_start[a0:a1] - t0,
                self.store[a0:a1], self.role[a0:a1])
            for sm, a0, a1, t0, t1 in zip(
                warp_sms, acc_bounds, acc_bounds[1:],
                txn_bounds, txn_bounds[1:])
        ]
        self._sectors = self._lane_warps = None
        self._seclens = self._stores = self._roles = None
        return self

    # ------------------------------------------------------------------
    @property
    def n_accesses(self) -> int:
        return len(self.txn_count)

    @property
    def n_txns(self) -> int:
        return len(self.line)

    def total_sectors(self) -> int:
        """Sector transactions across the whole trace."""
        return int(POPCOUNT4[self.mask].sum()) if self.n_txns else 0

    def digest_into(self, h) -> None:
        """Feed the trace's replay-relevant content into a hash object.

        Replay counters are a pure function of (line, mask, store, role,
        sm, access boundaries) plus the engine's prior state, so this is
        exactly the validator the launch memo chains over.
        """
        h.update(int(self.sm).to_bytes(4, "little"))
        h.update(int(self.n_accesses).to_bytes(8, "little"))
        h.update(self.line.tobytes())
        h.update(self.mask.tobytes())
        h.update(self.txn_count.tobytes())
        h.update(self.store.tobytes())
        h.update(self.role.tobytes())


def flatten_wave(traces: List[MemoryTrace]):
    """Expand one wave of traces into flat per-transaction arrays in the
    round-robin replay order.

    The wave interleave services access ``r`` of every warp (in warp
    order) before access ``r+1`` of any warp -- the invariant DESIGN.md
    section 5 calls load-bearing.  Returns ``None`` when the wave did no
    memory work, else a tuple of per-transaction arrays
    ``(line, mask, sm, store, role, nsec)`` ordered exactly as the
    reference replay would visit them.
    """
    live = [t for t in traces if t.n_accesses]
    if not live:
        return None
    n_acc = np.array([t.n_accesses for t in live], dtype=np.int64)
    total_acc = int(n_acc.sum())
    # per-access columns, concatenated in warp order; the access index
    # within each warp is a repeat/arange difference, not per-trace
    # aranges (this function is on the fused engine's warm path)
    acc_base = np.concatenate([[0], np.cumsum(n_acc)])[:-1]
    idx_within = np.arange(total_acc, dtype=np.int64) - np.repeat(
        acc_base, n_acc)
    counts = np.concatenate([t.txn_count for t in live])
    txn_base = np.concatenate(
        [[0], np.cumsum(np.array([t.n_txns for t in live], dtype=np.int64))]
    )[:-1]
    starts = np.concatenate([t.txn_start for t in live])
    starts = starts + np.repeat(txn_base, n_acc)
    stores = np.concatenate([t.store for t in live])
    roles = np.concatenate([t.role for t in live])
    sms = np.repeat(np.array([t.sm for t in live], dtype=np.int64), n_acc)
    line_all = np.concatenate([t.line for t in live])
    mask_all = np.concatenate([t.mask for t in live])

    # round-robin: sort by access index, stable within (preserves warp
    # order for equal rounds); int16 keys take numpy's radix path when
    # the deepest warp allows it
    if int(n_acc.max()) <= 32767:
        order = np.argsort(idx_within.astype(np.int16), kind="stable")
    else:
        order = np.argsort(idx_within, kind="stable")
    counts_o = counts[order]

    # CSR expansion: transaction gather index per interleaved access
    total = int(counts_o.sum())
    if total == 0:
        return None
    ends = np.cumsum(counts_o)
    offs = ends - counts_o
    gidx = np.arange(total, dtype=np.int64) + np.repeat(
        starts[order] - offs, counts_o)
    line = line_all[gidx]
    mask = mask_all[gidx]
    sm = np.repeat(sms[order], counts_o)
    store = np.repeat(stores[order], counts_o)
    role = np.repeat(roles[order], counts_o)
    nsec = POPCOUNT4[mask]
    return line, mask, sm, store, role, nsec

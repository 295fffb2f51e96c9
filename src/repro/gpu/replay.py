"""Pluggable replay engines: stage two of the capture -> replay pipeline.

A :class:`ReplayEngine` consumes one wave of :class:`MemoryTrace`
records (see :mod:`repro.gpu.trace`) and charges their cache/DRAM
effects into a :class:`KernelStats`.  Two implementations are kept
and cross-validated against each other (``tests/test_replay_engines.py``
asserts bit-identical counters and DRAM row state):

``ReferenceEngine``
    the historical semantics, verbatim: the dict-based
    :class:`~repro.gpu.cache.SectoredCache` hierarchy driven one
    transaction at a time in the wave's round-robin interleave.  This
    is the executable specification.

``FusedEngine``
    the fast engine and the default.  The wave is flattened into
    struct-of-arrays form up front (``trace.flatten_wave``) and each
    cache level runs as a single vectorized pass: the transaction
    stream is sorted by (set, tag), tag-runs are compressed to one
    representative each, and the survivors are scheduled into dense
    *rounds* of set-distinct accesses so the packed-integer cache
    transition becomes a handful of 2-d numpy gathers/scatters per
    round instead of a python loop per transaction (section 5.9 of
    DESIGN.md).  DRAM row-buffer accounting is vectorized per bank
    over the L2 miss stream.  Equivalence with the reference's clock
    stamps rests on LRU stamps only ever being *compared within one
    set of one level*: any stamping that is monotone in service order
    per set (here: flat wave positions) makes identical decisions.

Engine choice comes from ``GPUConfig.replay_engine`` and can be forced
globally with the ``REPRO_REPLAY_ENGINE`` environment variable.
Unknown names raise :class:`~repro.errors.UnknownEngineError` with
did-you-mean hints, same UX as unknown techniques.
"""
from __future__ import annotations

import difflib
import os
from typing import List, Protocol

import numpy as np

from ..errors import UnknownEngineError
from .cache import MemoryHierarchy
from .config import GPUConfig
from .dram import account_rows
from .stats import KernelStats
from .trace import MemoryTrace, POPCOUNT4, flatten_wave, role_name

#: engine names accepted by GPUConfig.replay_engine / REPRO_REPLAY_ENGINE
ENGINES = ("reference", "fused")

#: environment override checked at machine construction
ENGINE_ENV_VAR = "REPRO_REPLAY_ENGINE"


def _unknown_engine(name: str) -> UnknownEngineError:
    hints = difflib.get_close_matches(name, ENGINES, n=3, cutoff=0.5)
    return UnknownEngineError(name, known=ENGINES, hints=hints)


class ReplayEngine(Protocol):
    """Stage-two contract: replay one wave of traces into stats.

    Engines own whatever cache/DRAM state they need and keep it across
    launches (real GPUs do not flush caches between kernels); the
    machine constructs one engine and reuses it for its lifetime.
    """

    name: str

    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        """Charge one wave's memory traffic into ``stats``."""


def resolve_engine_name(config: GPUConfig) -> str:
    """Engine selection: env var beats config; validates the name."""
    name = os.environ.get(ENGINE_ENV_VAR) or config.replay_engine
    if name not in ENGINES:
        raise _unknown_engine(name)
    return name


def make_engine(name: str, config: GPUConfig,
                hierarchy: MemoryHierarchy) -> "ReplayEngine":
    """Construct the named engine against one machine's hierarchy/config."""
    if name == "reference":
        return ReferenceEngine(hierarchy)
    if name == "fused":
        return FusedEngine(config)
    raise _unknown_engine(name)


# ----------------------------------------------------------------------
# reference engine
# ----------------------------------------------------------------------
class ReferenceEngine:
    """The executable specification: dict-based caches, access at a time."""

    name = "reference"

    def __init__(self, hierarchy: MemoryHierarchy):
        self.hierarchy = hierarchy

    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        hier = self.hierarchy
        cursors = [0] * len(traces)
        remaining = sum(t.n_accesses for t in traces)
        while remaining:
            for i, t in enumerate(traces):
                c = cursors[i]
                if c >= t.n_accesses:
                    continue
                cursors[i] = c + 1
                remaining -= 1
                s = t.txn_start[c]
                e = s + t.txn_count[c]
                lines = t.line[s:e].tolist()
                masks = t.mask[s:e].tolist()
                sm = t.sm
                role = role_name(int(t.role[c]))
                if t.store[c]:
                    rm0 = hier.dram_row_misses
                    for line, m in zip(lines, masks):
                        hier.store(sm, line, m)
                    stats.dram_row_misses += hier.dram_row_misses - rm0
                    continue
                for line, m in zip(lines, masks):
                    n_sec = int(POPCOUNT4[m])
                    rm0 = hier.dram_row_misses
                    l1_hits, l2_hits, dram = hier.load(sm, line, m)
                    stats.l1_accesses += n_sec
                    stats.l1_hits += l1_hits
                    stats.l2_accesses += n_sec - l1_hits
                    stats.l2_hits += l2_hits
                    stats.dram_accesses += dram
                    stats.dram_row_misses += hier.dram_row_misses - rm0
                    stats.add_role_levels(role, l1_hits, l2_hits, dram)


# ----------------------------------------------------------------------
# fused engine
# ----------------------------------------------------------------------

#: stop emitting dense rounds once fewer sets than this stay alive; the
#: remaining transactions run through a dict-based tail (python loop),
#: which beats numpy fixed costs at small widths.
ROUND_CUTOFF = 24

#: run-compress a stream only when representatives are at most this
#: fraction of it; near-duplicate-free streams skip the reduceat work.
COMPRESS_THRESHOLD = 0.85

#: spread the 4 sector-mask bits of a transaction into 16-bit lanes of
#: one int64, so a cumulative sum computes four saturating prefix
#: counts at once (each lane counts earlier transactions touching that
#: sector; runs are shorter than 2**15 so lanes cannot overflow).
_SPREAD16 = np.array(
    [sum(((m >> b) & 1) << (16 * b) for b in range(4)) for m in range(16)],
    dtype=np.int64)
#: adding this to a lane-packed count raises lane bit 15 iff lane > 0.
_SAT = np.int64(0x7FFF * (1 + (1 << 16) + (1 << 32) + (1 << 48)))


def _shift_of(x: int):
    """log2(x) when x is a power of two, else None (division fallback)."""
    return x.bit_length() - 1 if x > 0 and (x & (x - 1)) == 0 else None


class FusedEngine:
    """Single-pass vectorized replay, one dense pass per cache level.

    The engine's LRU stamps are flat wave positions rather than the
    clock ticks the reference uses.  Stamps are only ever compared
    within one set of one cache level, and positions are strictly
    monotone in service order there, so every hit/evict decision -- and
    therefore every counter -- is bit-identical to the reference
    (DESIGN.md section 5.9 carries the full argument).

    State lives in four dense tables (``tag``/``val`` per level) of
    shape ``(num_sets, assoc)``.  A way's value packs
    ``(stamp << 4) | sector_mask``; empty ways hold tag -1 / value 0.
    """

    name = "fused"

    def __init__(self, config: GPUConfig):
        self.config = config
        g1, g2 = config.l1, config.l2
        self.num_sms = config.num_sms
        self._l1_line_bytes = g1.line_bytes
        self._l1_nsets = g1.num_sets
        self._l1_assoc = g1.assoc
        self._l2_line_bytes = g2.line_bytes
        self._l2_nsets = g2.num_sets
        self._l2_assoc = g2.assoc
        ns1 = self.num_sms * self._l1_nsets
        self._ns1 = ns1
        self._l1_tag = np.full((ns1, self._l1_assoc), -1, dtype=np.int64)
        self._l1_val = np.zeros((ns1, self._l1_assoc), dtype=np.int64)
        self._l2_tag = np.full((self._l2_nsets, self._l2_assoc), -1,
                               dtype=np.int64)
        self._l2_val = np.zeros((self._l2_nsets, self._l2_assoc),
                                dtype=np.int64)
        self._stamp = 1
        self._row_bytes = config.dram_row_bytes
        self._num_banks = config.dram_num_banks
        self._open_rows = {}
        self.dram_row_hits = 0
        self._l1_lb_sh = _shift_of(g1.line_bytes)
        self._l1_ns_sh = _shift_of(g1.num_sets)
        self._l2_lb_sh = _shift_of(g2.line_bytes)
        self._l2_ns_sh = _shift_of(g2.num_sets)

    # ------------------------------------------------------------------
    @staticmethod
    def _build_plan(skey, tag, req, store, ns, assoc, allocate_all):
        """All state-independent artifacts of one stream at one level.

        ``skey``/``tag``/``req`` are the per-transaction set key, line
        tag and requested sector mask, in service order; ``store`` is
        the per-transaction store flag (None when ``allocate_all``, the
        L2 semantics where stores allocate like loads).  Positions are
        kept *relative* (0..n-1 in service order); exec adds the wave's
        stamp base via a single offset on the packed values, which is
        sound because ``(p + base) << 4 | m == (p << 4 | m) + (base << 4)``.
        """
        n = len(skey)
        if ns <= 32767:
            order = np.argsort(skey.astype(np.int16), kind="stable")
        else:
            order = np.argsort(skey, kind="stable")
        ks = skey[order]
        ts = tag[order]
        ms = req[order].astype(np.int64, copy=False)
        ps = order  # relative positions (the stream is in service order)
        if allocate_all:
            ss = ld = None
        else:
            ss = store[order]
            ld = ~ss

        nb = np.empty(n, dtype=bool)
        nb[0] = True
        np.not_equal(ks[1:], ks[:-1], out=nb[1:])
        tb = nb.copy()
        tb[1:] |= ts[1:] != ts[:-1]
        compressed = False
        rstart = rlen = pm = None
        if tb.sum() <= COMPRESS_THRESHOLD * n:
            # run compression: consecutive same-(set, tag) transactions
            # collapse to one representative access; members recover
            # their outcomes post-hoc from the run's pre-state mask.
            compressed = True
            if allocate_all:
                run_start = tb
            else:
                # L1 write-through: stores before the first load of a
                # run stay singleton runs (they must not allocate)
                tstart = np.flatnonzero(tb)
                tlen = np.diff(np.concatenate([tstart, [n]]))
                idx_in = np.arange(n, dtype=np.int64) - np.repeat(tstart,
                                                                  tlen)
                fl = np.minimum.reduceat(np.where(ld, idx_in, n), tstart)
                run_start = tb | (idx_in <= np.repeat(fl, tlen))
            rstart = np.flatnonzero(run_start)
            rlen = np.diff(np.concatenate([rstart, [n]]))
            rep_key = ks[rstart]
            rep_tag = ts[rstart]
            rep_m = np.bitwise_or.reduceat(ms, rstart)
            if allocate_all:
                rep_pos = ps[rstart + rlen - 1]
                rep_st = None
            else:
                rep_pos = np.maximum.reduceat(np.where(ld, ps, -1), rstart)
                rep_st = ss[rstart]
            R = len(rstart)
            if int(rlen.max()) > 1:
                # member pre-access bits within each run (prefix-OR of
                # earlier members) -- purely structural
                v = _SPREAD16[ms]
                c = np.cumsum(v)
                cv = c - v
                exc = cv - np.repeat(cv[rstart], rlen)
                q = exc + _SAT
                pm = (((q >> 15) & 1) | ((q >> 30) & 2)
                      | ((q >> 45) & 4) | ((q >> 60) & 8))
        else:
            rep_key = ks
            rep_tag = ts
            rep_m = ms
            rep_pos = ps
            rep_st = None if allocate_all else ss
            R = n
        rep_pv_rel = (rep_pos << 4) | rep_m

        # round schedule: group representatives by set; round r serves
        # the r-th representative of every set still alive, so each
        # round is a dense batch of set-distinct accesses
        rnb = np.empty(R, dtype=bool)
        rnb[0] = True
        np.not_equal(rep_key[1:], rep_key[:-1], out=rnb[1:])
        gstart = np.flatnonzero(rnb)
        glen = np.diff(np.concatenate([gstart, [R]]))
        G = len(gstart)

        cnt = np.bincount(glen)
        round_sizes = np.cumsum(cnt[::-1])[::-1][1:]
        sizes_l = round_sizes.tolist()
        n_rounds = len(sizes_l)
        r_cut = 0
        while r_cut < n_rounds and sizes_l[r_cut] >= ROUND_CUTOFF:
            r_cut += 1
        has_tail = r_cut < n_rounds

        plan = {
            "n": n, "R": R, "order": order, "ms": ms,
            "compressed": compressed, "rstart": rstart, "rlen": rlen,
            "pm": pm, "r_cut": r_cut, "has_tail": has_tail, "G": G,
            "assoc": assoc,
            "t_r": None, "pv_r_rel": None, "st_r": None, "m_r": None,
            "st_any": None, "bounds_l": None, "sets_slot": None,
            "arA": None, "oldm_map": None, "in_rounds": None,
            "sk_l": None, "t_l": None, "pv_rel_tail": None, "st_l": None,
            "m_l": None, "uset": None, "tail_sel": None,
        }

        if r_cut > 0:
            # longest groups get the lowest slots so alive groups stay
            # a prefix of the slot range in every round
            rrank = np.arange(R, dtype=np.int64) - np.repeat(gstart, glen)
            g_order = np.argsort(-glen, kind="stable")
            g_slot = np.empty(G, dtype=np.int64)
            g_slot[g_order] = np.arange(G, dtype=np.int64)
            bounds = np.concatenate([[0], np.cumsum(round_sizes)])
            tpos = bounds[rrank] + np.repeat(g_slot, glen)
            bounds_l = bounds.tolist()
            nv = bounds_l[r_cut]
            if has_tail:
                in_rounds = rrank < r_cut
                tpos_r = tpos[in_rounds]
                t_r = np.empty(nv, dtype=np.int64)
                t_r[tpos_r] = rep_tag[in_rounds]
                pv_r = np.empty(nv, dtype=np.int64)
                pv_r[tpos_r] = rep_pv_rel[in_rounds]
                plan["in_rounds"] = in_rounds
                plan["oldm_map"] = tpos_r
            else:
                tpos_r = tpos
                t_r = np.empty(nv, dtype=np.int64)
                t_r[tpos] = rep_tag
                pv_r = np.empty(nv, dtype=np.int64)
                pv_r[tpos] = rep_pv_rel
                plan["oldm_map"] = tpos
            if rep_st is not None and rep_st.any():
                st_r = np.empty(nv, dtype=bool)
                m_r = np.empty(nv, dtype=np.int64)
                if has_tail:
                    st_r[tpos_r] = rep_st[in_rounds]
                    m_r[tpos_r] = rep_m[in_rounds]
                else:
                    st_r[tpos] = rep_st
                    m_r[tpos] = rep_m
                plan["st_r"] = st_r
                plan["m_r"] = m_r
                plan["st_any"] = np.logical_or.reduceat(
                    st_r, bounds[:r_cut]).tolist()
            plan["t_r"] = t_r
            plan["pv_r_rel"] = pv_r
            plan["bounds_l"] = bounds_l
            plan["sets_slot"] = rep_key[gstart][g_order]
            plan["arA"] = np.arange(G, dtype=np.int64) * assoc

        if has_tail:
            # representatives past the round cutoff run through the
            # dict tail, in sorted order (within-set order preserved)
            if r_cut > 0:
                sel = ~plan["in_rounds"]
                plan["tail_sel"] = sel
                sk = rep_key[sel]
                plan["sk_l"] = sk.tolist()
                plan["t_l"] = rep_tag[sel].tolist()
                plan["pv_rel_tail"] = rep_pv_rel[sel]
                if rep_st is not None:
                    plan["st_l"] = rep_st[sel].tolist()
                    plan["m_l"] = rep_m[sel].tolist()
                plan["uset"] = np.unique(sk)
            else:
                plan["sk_l"] = rep_key.tolist()
                plan["t_l"] = rep_tag.tolist()
                plan["pv_rel_tail"] = rep_pv_rel
                if rep_st is not None:
                    plan["st_l"] = rep_st.tolist()
                    plan["m_l"] = rep_m.tolist()
                plan["uset"] = np.unique(rep_key)
        return plan

    # ------------------------------------------------------------------
    @staticmethod
    def _exec_plan(plan, tags_st, vals_st, pos_base):
        """Run the state-dependent part of one stream pass.

        ``tags_st``/``vals_st`` are the level's dense state tables,
        updated in place.  Returns per-transaction ``(hits, residue)``
        in the stream's original service order.
        """
        n = plan["n"]
        R = plan["R"]
        assoc = plan["assoc"]
        r_cut = plan["r_cut"]
        off = np.int64(pos_base) << 4
        oldm_runs = np.empty(R, dtype=np.int64)

        if r_cut > 0:
            bounds_l = plan["bounds_l"]
            t_r = plan["t_r"]
            pv_r = plan["pv_r_rel"] + off
            st_r = plan["st_r"]
            m_r = plan["m_r"]
            st_any = plan["st_any"]
            sets_slot = plan["sets_slot"]
            arA = plan["arA"]
            G = plan["G"]
            nv = bounds_l[r_cut]
            oldm_r = np.empty(nv, dtype=np.int64)
            # gather the touched sets' state once; the extra dummy slot
            # at index G*assoc absorbs scatters for not-updated lanes
            GA = G * assoc
            rtf = np.empty(GA + 1, dtype=np.int64)
            rvf = np.empty(GA + 1, dtype=np.int64)
            rtf[:GA] = tags_st[sets_slot].ravel()
            rvf[:GA] = vals_st[sets_slot].ravel()
            rt = rtf[:GA].reshape(G, assoc)
            rv = rvf[:GA].reshape(G, assoc)

            for r in range(r_cut):
                a, b = bounds_l[r], bounds_l[r + 1]
                k = b - a
                t = t_r[a:b]
                hitw = rt[:k] == t[:, None]
                hit = hitw.any(axis=1)
                # single argmin picks the hit way (forced value -1) or
                # the LRU victim (min packed value >= 0)
                way = np.where(hitw, -1, rv[:k]).argmin(axis=1)
                idx = arA[:k] + way
                old = rvf[idx]
                om = np.where(hit, old & 15, 0)
                oldm_r[a:b] = om
                if st_any is None or not st_any[r]:
                    rvf[idx] = pv_r[a:b] | om
                    rtf[idx] = t
                else:
                    # mixed round: stores refresh-if-present only
                    st = st_r[a:b]
                    lod = ~st
                    upd = lod | hit
                    new_val = np.where(lod, pv_r[a:b] | om, old | m_r[a:b])
                    rvf[np.where(upd, idx, GA)] = new_val
                    rtf[np.where(lod, idx, GA)] = t
            tags_st[sets_slot] = rt
            vals_st[sets_slot] = rv
            if plan["has_tail"]:
                oldm_runs[plan["in_rounds"]] = oldm_r[plan["oldm_map"]]
            else:
                oldm_runs = oldm_r[plan["oldm_map"]]

        if plan["has_tail"]:
            sk_l = plan["sk_l"]
            t_l = plan["t_l"]
            pv_l = (plan["pv_rel_tail"] + off).tolist()
            st_l = plan["st_l"]
            m_l = plan["m_l"]
            uset = plan["uset"]
            ntail = len(sk_l)
            # lift the touched sets into dicts (one batched gather),
            # run the dict core, scatter back
            urows_t = tags_st[uset].tolist()
            urows_v = vals_st[uset].tolist()
            dicts = {}
            for j, si in enumerate(uset.tolist()):
                trow = urows_t[j]
                vrow = urows_v[j]
                dicts[si] = {trow[w]: vrow[w] for w in range(assoc)
                             if trow[w] >= 0}
            om_l = [0] * ntail
            if st_l is None:
                for i in range(ntail):
                    d = dicts[sk_l[i]]
                    t1 = t_l[i]
                    v = d.get(t1)
                    if v is not None:
                        om = v & 15
                    else:
                        om = 0
                        if len(d) >= assoc:
                            del d[min(d, key=d.__getitem__)]
                    d[t1] = pv_l[i] | om
                    om_l[i] = om
            else:
                for i in range(ntail):
                    d = dicts[sk_l[i]]
                    t1 = t_l[i]
                    v = d.get(t1)
                    if st_l[i]:
                        if v is not None:
                            om_l[i] = v & 15
                            d[t1] = v | m_l[i]
                        continue
                    if v is not None:
                        om = v & 15
                    else:
                        om = 0
                        if len(d) >= assoc:
                            del d[min(d, key=d.__getitem__)]
                    d[t1] = pv_l[i] | om
                    om_l[i] = om
            nt = np.full((len(uset), assoc), -1, dtype=np.int64)
            nvv = np.zeros((len(uset), assoc), dtype=np.int64)
            for j, si in enumerate(uset.tolist()):
                d = dicts[si]
                if d:
                    nt[j, :len(d)] = list(d.keys())
                    nvv[j, :len(d)] = list(d.values())
            tags_st[uset] = nt
            vals_st[uset] = nvv
            if r_cut > 0:
                oldm_runs[plan["tail_sel"]] = om_l
            else:
                oldm_runs[:] = om_l

        # member finish: each transaction's outcome from its run's
        # pre-state mask OR'd with earlier members' sectors
        ms = plan["ms"]
        if plan["compressed"]:
            cur = np.repeat(oldm_runs, plan["rlen"])
            if plan["pm"] is not None:
                cur |= plan["pm"]
        else:
            cur = oldm_runs
        mo = cur & ms
        h_s = POPCOUNT4[mo]
        res_s = ms ^ mo
        order = plan["order"]
        hits = np.empty(n, dtype=np.int64)
        residue = np.empty(n, dtype=np.int64)
        hits[order] = h_s
        residue[order] = res_s
        return hits, residue

    # ------------------------------------------------------------------
    @staticmethod
    def _line_no(line, lb_sh, line_bytes):
        if lb_sh is not None:
            return (line >> np.uint64(lb_sh)).astype(np.int64)
        return (line // np.uint64(line_bytes)).astype(np.int64)

    def replay_wave(self, traces: List[MemoryTrace],
                    stats: KernelStats) -> None:
        flat = flatten_wave(traces)
        if flat is None:
            return
        line, mask, sm, store, role, nsec = flat
        n = len(line)
        # reserve a disjoint stamp window for this wave: L1 uses
        # base..base+n-1 (relative positions), L2 uses base+n+1..base+2n
        base = self._stamp
        self._stamp = base + 2 * n + 2

        # L1: per-SM sets flattened into one key space
        l1n = self._line_no(line, self._l1_lb_sh, self._l1_line_bytes)
        if self._l1_ns_sh is not None:
            l1_key = (sm % self.num_sms) * self._l1_nsets + \
                (l1n & (self._l1_nsets - 1))
            l1_tag = l1n >> self._l1_ns_sh
        else:
            l1_key = (sm % self.num_sms) * self._l1_nsets + \
                (l1n % self._l1_nsets)
            l1_tag = l1n // self._l1_nsets
        req = mask.astype(np.int64)
        l1 = self._build_plan(l1_key, l1_tag, req, store, self._ns1,
                              self._l1_assoc, allocate_all=False)
        l1h, l1_res = self._exec_plan(l1, self._l1_tag, self._l1_val, base)

        is_load = ~store
        load_roles = role[is_load]
        minlength = int(load_roles.max()) + 1 if len(load_roles) else 0

        # L2: every store (write-through) plus the loads' L1 residues
        idx2 = np.flatnonzero(store | (l1_res != 0))
        stats_l2_hits = 0
        stats_dram = 0
        by_l2 = by_dr = None
        if len(idx2):
            line2 = line[idx2]
            l2_req = np.where(store[idx2], req[idx2], l1_res[idx2])
            l2n = self._line_no(line2, self._l2_lb_sh, self._l2_line_bytes)
            if self._l2_ns_sh is not None:
                l2_key = l2n & (self._l2_nsets - 1)
                l2_tag = l2n >> self._l2_ns_sh
            else:
                l2_key = l2n % self._l2_nsets
                l2_tag = l2n // self._l2_nsets
            l2 = self._build_plan(l2_key, l2_tag, l2_req, None,
                                  self._l2_nsets, self._l2_assoc,
                                  allocate_all=True)
            h2, r2 = self._exec_plan(l2, self._l2_tag, self._l2_val,
                                     base + n + 1)
            ld2 = is_load[idx2]
            drm2 = POPCOUNT4[r2]
            h2l = h2[ld2]
            drm2l = drm2[ld2]
            stats_l2_hits = int(h2l.sum())
            stats_dram = int(drm2l.sum())
            # DRAM row buffers see every transaction whose sectors
            # missed L2, loads and stores alike, in service order
            rsel = r2 != 0
            if rsel.any():
                hits_, misses = account_rows(line2[rsel], self._row_bytes,
                                             self._num_banks,
                                             self._open_rows)
                stats.dram_row_misses += misses
                self.dram_row_hits += hits_
            if minlength:
                roles2l = role[idx2][ld2]
                by_l2 = np.bincount(roles2l, weights=h2l,
                                    minlength=minlength)
                by_dr = np.bincount(roles2l, weights=drm2l,
                                    minlength=minlength)

        l1h_l = l1h[is_load]
        l1_acc = int(nsec[is_load].sum())
        l1_hits = int(l1h_l.sum())
        stats.l1_accesses += l1_acc
        stats.l1_hits += l1_hits
        stats.l2_accesses += l1_acc - l1_hits
        stats.l2_hits += stats_l2_hits
        stats.dram_accesses += stats_dram

        # per-role L1/L2/DRAM attribution (loads only, like the reference)
        if minlength:
            by_l1 = np.bincount(load_roles, weights=l1h_l,
                                minlength=minlength)
            if by_l2 is None:
                by_l2 = by_dr = np.zeros(minlength)
            present = np.bincount(load_roles, minlength=minlength)
            for rid in np.flatnonzero(present).tolist():
                if rid == 0:
                    continue  # role None is never attributed
                stats.add_role_levels(
                    role_name(rid), int(by_l1[rid]), int(by_l2[rid]),
                    int(by_dr[rid]),
                )

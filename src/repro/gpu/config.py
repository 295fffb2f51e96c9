"""V100-like GPU configuration.

Parameters follow the NVIDIA Volta V100 the paper measures on
(section 7) at the granularity our roofline timing model needs: SIMT
width, SM count, cache geometry, and per-level sector bandwidth.
Absolute numbers are not the goal (see DESIGN.md section 5); the
*ratios* between levels are what shape Figures 6-12.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 128
    sector_bytes: int = 32

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes

    def __post_init__(self):
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.line_bytes % self.sector_bytes:
            raise ValueError("line size must be a multiple of the sector size")
        if (self.size_bytes // self.line_bytes) % self.assoc:
            raise ValueError("line count must be a multiple of associativity")


@dataclass(frozen=True)
class GPUConfig:
    """Top-level machine description (defaults: V100 Volta)."""

    name: str = "V100"
    warp_size: int = 32
    num_sms: int = 80
    schedulers_per_sm: int = 4
    core_clock_ghz: float = 1.38

    #: per-SM L1 (V100: 128KB combined L1/shared; we give L1 64KB)
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=64 * 1024, assoc=4)
    )
    #: device-wide L2 (V100: 6MB)
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=6 * 1024 * 1024, assoc=16)
    )

    # ------------------------------------------------------------------
    # roofline throughput model (sectors are 32B)
    # ------------------------------------------------------------------
    #: warp instructions the whole chip can issue per cycle
    #: (one per scheduler: 80 SMs x 4 schedulers)
    @property
    def issue_width(self) -> int:
        return self.num_sms * self.schedulers_per_sm

    #: L1 sectors serviceable per cycle chip-wide (4 x 32B per SM per cycle)
    l1_sectors_per_cycle: float = 320.0
    #: L2 sectors per cycle chip-wide (~2.1 TB/s at 1.38 GHz)
    l2_sectors_per_cycle: float = 48.0
    #: DRAM sectors per cycle chip-wide (~900 GB/s HBM2 at 1.38 GHz)
    dram_sectors_per_cycle: float = 20.0

    # ------------------------------------------------------------------
    # DRAM row-buffer model: accesses that stay in an open row stream at
    # full bandwidth; a row miss pays an activate/precharge penalty.
    # This is what rewards SharedOA's contiguous same-type regions over
    # the CUDA allocator's scattered, padded placements (section 8.2).
    # ------------------------------------------------------------------
    dram_row_bytes: int = 2048
    dram_num_banks: int = 16
    #: extra cost of a row miss, in sector-service equivalents
    dram_row_miss_penalty_sectors: float = 8.0

    #: warps concurrently resident per SM.  The executor interleaves the
    #: memory traces of one wave (num_sms x this) of warps through the
    #: caches round-robin, modelling the inter-warp thrashing that makes
    #: the embedded vTable-pointer load a poor prefetch on GPUs
    #: (paper section 1).
    resident_warps_per_sm: int = 16

    # ------------------------------------------------------------------
    # replay engine (stage two of the capture -> replay pipeline).
    # "reference" (the spec) and "fused" (the fast path) are
    # cross-validated bit-identical (tests/test_replay_engines.py); the
    # env var REPRO_REPLAY_ENGINE overrides this per process.  See
    # repro.gpu.replay.
    # ------------------------------------------------------------------
    replay_engine: str = "fused"

    # ------------------------------------------------------------------
    # TLB model (off by default; see repro.gpu.tlb and the TLB ablation)
    # ------------------------------------------------------------------
    model_tlb: bool = False
    tlb_l1_entries: int = 32
    tlb_l2_entries: int = 512
    #: cycles one page-table walk costs (amortised over walk parallelism)
    tlb_walk_cycles: float = 20.0

    #: fixed kernel-launch overhead in cycles (driver + ramp-up)
    kernel_launch_cycles: float = 4000.0
    #: exposed latency charged per round of dependent memory levels; a
    #: small term so tiny launches are not reported as free
    base_memory_latency_cycles: float = 400.0

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.core_clock_ghz * 1e9)

    # ------------------------------------------------------------------
    # validated overrides: the one path sweep points and the CLI's
    # ``--config k=v`` both go through
    # ------------------------------------------------------------------
    def with_overrides(self, **knobs: Any) -> "GPUConfig":
        """A copy with ``knobs`` replaced, rejecting unknown names.

        Unknown field names raise ``ValueError`` with did-you-mean
        hints; ``l1``/``l2`` accept either a :class:`CacheGeometry` or
        a mapping of geometry fields (missing fields keep the current
        geometry's values), and constructing the geometry re-runs its
        size/line/associativity divisibility checks.
        """
        import difflib

        known = {f.name for f in fields(self)}
        resolved: dict = {}
        for name, value in knobs.items():
            if name not in known:
                msg = f"unknown GPUConfig knob {name!r}"
                close = difflib.get_close_matches(name, sorted(known), n=3)
                if close:
                    msg += f"; did you mean: {', '.join(close)}?"
                raise ValueError(msg)
            if name in ("l1", "l2") and isinstance(value, Mapping):
                geo_known = {f.name for f in fields(CacheGeometry)}
                bad = sorted(set(value) - geo_known)
                if bad:
                    raise ValueError(
                        f"unknown CacheGeometry field(s) {bad} for "
                        f"{name!r}; known: {', '.join(sorted(geo_known))}")
                value = replace(getattr(self, name), **dict(value))
            resolved[name] = value
        return replace(self, **resolved)


#: dotted sweep knobs reach into these nested geometries
_NESTED_KNOBS = ("l1", "l2")


def base_configs() -> dict:
    """Named base configurations a sweep spec / CLI may start from."""
    return {
        "scaled": scaled_config,
        "small": small_config,
        "v100": GPUConfig,
    }


def config_with_knobs(base: GPUConfig,
                      knobs: Mapping[str, Any]) -> GPUConfig:
    """Apply a flat knob mapping (dotted keys reach into l1/l2).

    ``{"l1.size_bytes": 8192, "model_tlb": True}`` becomes a validated
    :meth:`GPUConfig.with_overrides` call; unless the mapping sets
    ``name`` explicitly the result is renamed ``<base>+<hash>`` so two
    different knob sets can never share a replay-store bucket or a
    runner cache key.
    """
    from ..canon import content_id

    flat: dict = {}
    nested: dict = {}
    for key, value in knobs.items():
        if "." in key:
            prefix, _, leaf = key.partition(".")
            if prefix not in _NESTED_KNOBS:
                raise ValueError(
                    f"unknown nested knob {key!r}; dotted knobs must "
                    f"start with one of: {', '.join(_NESTED_KNOBS)}")
            nested.setdefault(prefix, {})[leaf] = value
        else:
            flat[key] = value
    for prefix, leaves in nested.items():
        if prefix in flat:
            raise ValueError(
                f"knob {prefix!r} given both whole ({prefix}=...) and "
                f"dotted ({prefix}.field=...) -- pick one form")
        flat[prefix] = leaves
    cfg = base.with_overrides(**flat)
    if "name" not in flat and knobs:
        cfg = replace(cfg, name=f"{base.name}+{content_id(dict(knobs))}")
    return cfg


def scaled_config() -> GPUConfig:
    """A V100 scaled down 5x for tractable pure-Python workloads.

    The paper runs ~10^6-object workloads on 80 SMs; our workloads run
    ~10^4-10^5 objects, so the machine shrinks proportionally (16 SMs,
    per-SM L1 halved, L2 and bandwidths divided by ~5-6) to preserve
    the objects-per-SM and working-set-to-cache ratios that shape
    Figures 6-12.  See DESIGN.md section 2 (substitution table).
    """
    return GPUConfig(
        name="V100/5",
        num_sms=16,
        schedulers_per_sm=4,
        l1=CacheGeometry(size_bytes=8 * 1024, assoc=4),
        l2=CacheGeometry(size_bytes=256 * 1024, assoc=8),
        l1_sectors_per_cycle=32.0,
        l2_sectors_per_cycle=9.6,
        dram_sectors_per_cycle=4.0,
        dram_row_miss_penalty_sectors=6.0,
        resident_warps_per_sm=12,
        kernel_launch_cycles=300.0,
        base_memory_latency_cycles=100.0,
    )


def small_config() -> GPUConfig:
    """A scaled-down machine for unit tests: fewer SMs, tiny caches.

    Tiny caches make hit/miss behaviour observable with small inputs.
    """
    return GPUConfig(
        name="test-gpu",
        num_sms=4,
        schedulers_per_sm=2,
        l1=CacheGeometry(size_bytes=4 * 1024, assoc=2),
        l2=CacheGeometry(size_bytes=32 * 1024, assoc=4),
        l1_sectors_per_cycle=16.0,
        l2_sectors_per_cycle=4.0,
        dram_sectors_per_cycle=2.0,
        kernel_launch_cycles=100.0,
    )

"""System and energy configuration (Tables 1 and 2 of the paper).

Every experiment builds a :class:`SystemConfig`, usually via
:func:`default_system`, which reproduces the paper's 45 nm single-core
setup: 32 KB L1, 256 KB 16-way L2, 2 MB 16-way L3, with each lower-level
cache split into three sublevels of 4 + 4 + 8 ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Tuple

LINE_SIZE_BYTES = 64
LINE_SIZE_BITS = LINE_SIZE_BYTES * 8
PAGE_SIZE_BYTES = 4096
LINES_PER_PAGE = PAGE_SIZE_BYTES // LINE_SIZE_BYTES


def line_to_page_shift(lines_per_page: int = LINES_PER_PAGE) -> int:
    """Right-shift turning a line address into its page number.

    The one shared definition of the page grain: the hierarchy derives
    its ``_page_shift`` from here (via ``SystemConfig.lines_per_page``)
    and trace footprint reporting uses the same hook, so a non-4KB-page
    config cannot silently disagree with the simulator about what a
    "page" is. ``lines_per_page`` is rounded up to the next power of
    two, matching the hierarchy's historical derivation.
    """
    shift = 0
    while (1 << shift) < lines_per_page:
        shift += 1
    return shift


def check_warmup_fraction(warmup_fraction: float) -> None:
    """Reject a warmup fraction outside ``[0, 1]`` with ``ValueError``.

    Every run entry point calls this first, so a bad value fails the
    same way whichever path (kernel or scalar walk) would have run it;
    past the boundary the paths would otherwise disagree (one returns a
    result, another trips an invariant or indexes out of range).
    """
    try:
        ok = 0.0 <= warmup_fraction <= 1.0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(
            f"warmup_fraction must be in [0, 1], got {warmup_fraction!r}")


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry, latency and energy of one cache level.

    ``sublevel_ways`` partitions the ways into sublevels ordered from the
    most energy-efficient (nearest the cache controller) to the least.
    An empty tuple means the level is uniform (no sublevels), as for L1.
    Energies are per line-sized access, in picojoules.
    """

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int
    access_energy_pj: float
    metadata_energy_pj: float = 0.0
    sublevel_ways: Tuple[int, ...] = ()
    sublevel_energy_pj: Tuple[float, ...] = ()
    sublevel_latency: Tuple[int, ...] = ()
    line_size: int = LINE_SIZE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_size):
            raise ValueError(f"{self.name}: size not divisible by ways*line")
        if self.sublevel_ways and sum(self.sublevel_ways) != self.ways:
            raise ValueError(f"{self.name}: sublevel ways must sum to ways")
        if self.sublevel_ways and (
            len(self.sublevel_ways) != len(self.sublevel_energy_pj)
            or len(self.sublevel_ways) != len(self.sublevel_latency)
        ):
            raise ValueError(f"{self.name}: sublevel spec lengths differ")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sublevels(self) -> int:
        return len(self.sublevel_ways) if self.sublevel_ways else 1

    def sublevel_of_way(self, way: int) -> int:
        """Sublevel index that the given way belongs to."""
        if not self.sublevel_ways:
            return 0
        upper = 0
        for idx, n_ways in enumerate(self.sublevel_ways):
            upper += n_ways
            if way < upper:
                return idx
        raise IndexError(f"way {way} out of range for {self.name}")

    def ways_of_sublevel(self, sublevel: int) -> range:
        """Way indices composing the given sublevel."""
        if not self.sublevel_ways:
            return range(self.ways)
        start = sum(self.sublevel_ways[:sublevel])
        return range(start, start + self.sublevel_ways[sublevel])

    def sublevel_capacity_lines(self, sublevel: int) -> int:
        """Capacity, in cache lines, of one sublevel."""
        n_ways = self.sublevel_ways[sublevel] if self.sublevel_ways else self.ways
        return n_ways * self.sets

    def cumulative_capacity_lines(self) -> Tuple[int, ...]:
        """Cumulative capacities (in lines) through each sublevel."""
        out, total = [], 0
        for idx in range(self.num_sublevels):
            total += self.sublevel_capacity_lines(idx)
            out.append(total)
        return tuple(out)

    # ------------------------------------------------------------------
    # Flat lookup tables for the simulator hot path. Computed once per
    # config (cached_property writes straight into __dict__, which the
    # frozen dataclass permits) so CacheLevel never rescans sublevels
    # per access.
    # ------------------------------------------------------------------
    @cached_property
    def way_sublevels(self) -> Tuple[int, ...]:
        """Sublevel of every way, indexed by way."""
        return tuple(self.sublevel_of_way(w) for w in range(self.ways))

    @cached_property
    def sublevel_read_energies_pj(self) -> Tuple[float, ...]:
        """Per-sublevel read energy; single entry for uniform levels."""
        if not self.sublevel_energy_pj:
            return (self.access_energy_pj,)
        return tuple(self.sublevel_energy_pj)

    @cached_property
    def way_read_energies_pj(self) -> Tuple[float, ...]:
        """Read energy of every way, indexed by way."""
        table = self.sublevel_read_energies_pj
        return tuple(table[s] for s in self.way_sublevels)

    @cached_property
    def way_latencies(self) -> Tuple[int, ...]:
        """Access latency of every way, indexed by way."""
        if not self.sublevel_latency:
            return (self.latency_cycles,) * self.ways
        return tuple(
            self.sublevel_latency[s] for s in self.way_sublevels
        )

    def read_energy_pj(self, way: int) -> float:
        """Energy of reading a line from the given way."""
        if not self.sublevel_energy_pj:
            return self.access_energy_pj
        return self.sublevel_energy_pj[self.sublevel_of_way(way)]

    # A write drives the same wires and bitlines as a read at this
    # granularity, so we charge the same energy.
    write_energy_pj = read_energy_pj

    def latency_of_way(self, way: int) -> int:
        if not self.sublevel_latency:
            return self.latency_cycles
        return self.sublevel_latency[self.sublevel_of_way(way)]

    def average_access_energy_pj(self) -> float:
        """Way-capacity-weighted mean access energy across the level."""
        if not self.sublevel_energy_pj:
            return self.access_energy_pj
        total = math.fsum(
            n * e for n, e in zip(self.sublevel_ways, self.sublevel_energy_pj)
        )
        return total / self.ways


@dataclass(frozen=True)
class DramConfig:
    """DRAM access model (Vogelsang-style Idd4 + Idd7RW energy)."""

    latency_cycles: int = 100
    energy_pj_per_bit: float = 20.0
    line_size: int = LINE_SIZE_BYTES

    @property
    def energy_pj_per_line(self) -> float:
        return self.energy_pj_per_bit * self.line_size * 8


@dataclass(frozen=True)
class SlipParams:
    """SLIP mechanism parameters (Section 4 of the paper)."""

    num_bins: int = 4
    bin_bits: int = 4
    timestamp_bits: int = 6
    nsamp: int = 16
    nstab: int = 256
    eou_energy_pj: float = 1.27
    movement_queue_entries: int = 16
    movement_queue_lookup_pj: float = 0.3
    include_insertion_energy: bool = True
    # Evidence (samples in the current sampling period) required before
    # the EOU may choose the All-Bypass Policy at the LLC. Bypassing at
    # L3 breaks even at a ~1.3% hit rate (DRAM costs ~75x an L3 access),
    # a call that cannot be made from a handful of samples; the paper's
    # Nsamp=16 sampling periods gather ~64+ samples per decision, and
    # this floor restores that property at accelerated sampling rates.
    l3_abp_min_samples: int = 24
    # Section 7 extension: reuse-distance blocks smaller than a page.
    # 0 keeps the paper's evaluation default (one rd-block per 4 KB
    # page); a power of two < 64 keys profiles and policies by
    # ``rd_block_lines``-line blocks, cached in a TLB-like SLIP-cache.
    rd_block_lines: int = 0
    slip_cache_entries: int = 128

    @property
    def bin_max(self) -> int:
        return (1 << self.bin_bits) - 1


@dataclass(frozen=True)
class CoreConfig:
    """Core timing/energy model used for speedup and full-system energy."""

    frequency_ghz: float = 2.4
    base_cpi: float = 0.5
    # Fraction of an access's memory stall that the OoO window cannot hide.
    stall_exposure: float = 0.35
    # Dynamic core + L1 energy per instruction, used only for the
    # full-system roll-up (Figure 10). Calibrated so that L2 + L3 sit in
    # the 5-10% of full-system dynamic energy implied by the paper.
    core_energy_pj_per_instr: float = 120.0
    l1_access_energy_pj: float = 10.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete single-core system (Tables 1 and 2)."""

    l1: CacheLevelConfig
    l2: CacheLevelConfig
    l3: CacheLevelConfig
    dram: DramConfig
    slip: SlipParams = field(default_factory=SlipParams)
    core: CoreConfig = field(default_factory=CoreConfig)
    tlb_entries: int = 64
    page_size: int = PAGE_SIZE_BYTES

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.l2.line_size

    def with_slip(self, **kwargs) -> "SystemConfig":
        return replace(self, slip=replace(self.slip, **kwargs))


def default_l1() -> CacheLevelConfig:
    return CacheLevelConfig(
        name="L1",
        size_bytes=32 * 1024,
        ways=8,
        latency_cycles=4,
        access_energy_pj=10.0,
    )


def default_l2(energies: Optional[Tuple[float, ...]] = None,
               baseline_energy: float = 39.0,
               metadata_energy: float = 1.0) -> CacheLevelConfig:
    """256 KB 16-way L2, sublevels of 64 KB / 64 KB / 128 KB (Table 1)."""
    return CacheLevelConfig(
        name="L2",
        size_bytes=256 * 1024,
        ways=16,
        latency_cycles=7,
        access_energy_pj=baseline_energy,
        metadata_energy_pj=metadata_energy,
        sublevel_ways=(4, 4, 8),
        sublevel_energy_pj=energies or (21.0, 33.0, 50.0),
        sublevel_latency=(4, 6, 8),
    )


def default_l3(energies: Optional[Tuple[float, ...]] = None,
               baseline_energy: float = 136.0,
               metadata_energy: float = 2.5) -> CacheLevelConfig:
    """2 MB 16-way L3, sublevels of 512 KB / 512 KB / 1 MB (Table 1)."""
    return CacheLevelConfig(
        name="L3",
        size_bytes=2 * 1024 * 1024,
        ways=16,
        latency_cycles=20,
        access_energy_pj=baseline_energy,
        metadata_energy_pj=metadata_energy,
        sublevel_ways=(4, 4, 8),
        sublevel_energy_pj=energies or (67.0, 113.0, 176.0),
        sublevel_latency=(15, 19, 23),
    )


def default_system() -> SystemConfig:
    """The paper's 45 nm single-core system (Tables 1 and 2)."""
    return SystemConfig(
        l1=default_l1(),
        l2=default_l2(),
        l3=default_l3(),
        dram=DramConfig(),
    )

"""Two-core multiprogrammed simulation with a shared L3 (Figure 16).

Each core has a private L1 and a private 256 KB L2; the 2 MB L3 is
shared. Address spaces are disjoint (multiprogrammed SPEC, no sharing),
so the only interaction is capacity/interleaving pressure in the L3 —
which roughly doubles observed reuse distances, pushes more pages into
bypassing SLIPs, and yields the larger L3 savings the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.controller import SlipPlacement
from ..core.runtime import BaselineRuntime, SlipRuntime
from ..mem.cache import CacheLevel
from ..mem.hierarchy import MemoryHierarchy
from ..mem.replacement import LruReplacement
from ..mem.stats import DramStats, LevelStats
from ..policies.base import PlacementPolicy
from ..policies.baseline import BaselinePlacement
from ..policies.lru_pea import LruPeaPlacement, PeaLruReplacement
from ..policies.nurapid import NurapidPlacement
from ..workloads.mixes import CORE_ADDRESS_STRIDE, make_mix_traces
from ..workloads.trace import Trace
from .config import SystemConfig, check_warmup_fraction, default_system
from .vector_mix import try_run_mix

#: Page-number shift that recovers the core id from a page.
_CORE_PAGE_SHIFT = (CORE_ADDRESS_STRIDE.bit_length() - 1) - 6


class RoutedSlipRuntime:
    """Routes shared-L3 SLIP queries to the owning core's runtime."""

    slip_enabled = True

    def __init__(self, runtimes: List[SlipRuntime]) -> None:
        self.runtimes = runtimes

    def _owner(self, page: int) -> SlipRuntime:
        core = min(page >> _CORE_PAGE_SHIFT, len(self.runtimes) - 1)
        return self.runtimes[core]

    def policy_for(self, level_name: str, page: int) -> int:
        return self._owner(page).policy_for(level_name, page)

    def is_sampling(self, page: int) -> bool:
        return self._owner(page).is_sampling(page)

    def policy_and_sampling(self, level_name: str, page: int):
        return self._owner(page).policy_and_sampling(level_name, page)

    def record_reuse(self, level_name: str, page: int,
                     reuse_distance: int) -> None:
        self._owner(page).record_reuse(level_name, page, reuse_distance)

    def record_miss_sample(self, level_name: str, page: int) -> None:
        self._owner(page).record_miss_sample(level_name, page)


@dataclass
class MulticoreResult:
    """Measurements from one two-core mix under one policy."""

    policy: str
    mix: Tuple[str, str]
    l2_stats: List[LevelStats]
    l3_stats: LevelStats
    dram: DramStats
    eou_energy_pj: float = 0.0
    dram_accesses: int = 0

    def l2_energy_pj(self) -> float:
        return math.fsum(s.energy.total_pj for s in self.l2_stats)

    def l3_energy_pj(self) -> float:
        return self.l3_stats.energy.total_pj + self.eou_energy_pj

    def combined_energy_pj(self) -> float:
        return self.l2_energy_pj() + self.l3_energy_pj()

    def savings_over(self, baseline: "MulticoreResult",
                     what: str) -> float:
        mine, base = {
            "L3": (self.l3_energy_pj(), baseline.l3_energy_pj()),
            "L2+L3": (self.combined_energy_pj(),
                      baseline.combined_energy_pj()),
            "DRAM": (float(self.dram_accesses),
                     float(baseline.dram_accesses)),
        }[what]
        if base == 0:
            return 0.0
        return 1.0 - mine / base


def _build_shared_l3(config: SystemConfig, policy: str,
                     runtimes: List, seed: int
                     ) -> Tuple[CacheLevel, PlacementPolicy]:
    if policy == "lru_pea":
        replacement = PeaLruReplacement()
    else:
        replacement = LruReplacement()
    level = CacheLevel(
        config.l3, replacement,
        track_metadata_energy=policy in ("slip", "slip_abp"),
        timestamp_bits=config.slip.timestamp_bits,
    )
    mq_pj = config.slip.movement_queue_lookup_pj
    placement: PlacementPolicy
    if policy == "baseline":
        placement = BaselinePlacement()
    elif policy == "nurapid":
        placement = NurapidPlacement(mq_pj)
    elif policy == "lru_pea":
        placement = LruPeaPlacement(mq_pj, seed=seed)
    elif policy in ("slip", "slip_abp"):
        router = RoutedSlipRuntime(runtimes)
        placement = SlipPlacement(runtimes[0].spaces["L3"], router, mq_pj)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    placement.attach(level)
    return level, placement


def run_mix(
    mix: Tuple[str, str],
    policy: str,
    length_per_core: int = 100_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    warmup_fraction: float = 0.3,
) -> MulticoreResult:
    """Simulate one two-core mix under one policy."""
    check_warmup_fraction(warmup_fraction)
    config = config or default_system()
    traces = make_mix_traces(mix, length_per_core, seed)
    return run_mix_traces(traces, mix, policy, config, seed,
                          warmup_fraction=warmup_fraction)


def run_mix_traces(
    traces: List[Trace],
    mix: Tuple[str, str],
    policy: str,
    config: SystemConfig,
    seed: int = 0,
    warmup_fraction: float = 0.3,
) -> MulticoreResult:
    """Simulate pre-built per-core traces under one policy.

    The kernel path (:func:`~repro.sim.vector_mix.try_run_mix`) serves
    the cell when it can; otherwise the round-robin scalar walk, the
    golden reference, does. Both leave the same statistics behind. A
    warmup fraction outside ``[0, 1]`` raises ``ValueError``.
    """
    check_warmup_fraction(warmup_fraction)
    slip = policy in ("slip", "slip_abp")
    runtimes, shared_l3, hierarchies = _build_mix(config, policy,
                                                  len(traces), seed)
    if slip:
        # Scale compensation, as in run_trace: 2/32 keeps the paper's
        # 5.9% distribution-fetch fraction while letting pages learn
        # within laptop-scale traces.
        for rt in runtimes:
            rt.sampler.nsamp, rt.sampler.nstab = 2, 32
    if not try_run_mix(hierarchies, traces, config, warmup_fraction):
        _run_mix_scalar(hierarchies, shared_l3, traces, warmup_fraction)
    return _collect_mix(policy, mix, runtimes, shared_l3, hierarchies)


def _build_mix(config: SystemConfig, policy: str, num_cores: int,
               seed: int) -> Tuple[List, CacheLevel, List[MemoryHierarchy]]:
    """Per-core runtimes and hierarchies around one shared L3."""
    mq_pj = config.slip.movement_queue_lookup_pj
    slip = policy in ("slip", "slip_abp")
    allow_abp = policy == "slip_abp"

    runtimes: List = []
    for core in range(num_cores):
        if slip:
            runtimes.append(
                SlipRuntime(config, allow_abp=allow_abp, seed=seed + core)
            )
        else:
            runtimes.append(BaselineRuntime(config))

    shared_l3, l3_placement = _build_shared_l3(
        config, policy, runtimes, seed
    )

    hierarchies: List[MemoryHierarchy] = []
    for core in range(num_cores):
        if policy == "baseline":
            l2_placement: PlacementPolicy = BaselinePlacement()
            l2_repl = LruReplacement()
        elif policy == "nurapid":
            l2_placement = NurapidPlacement(mq_pj)
            l2_repl = LruReplacement()
        elif policy == "lru_pea":
            l2_placement = LruPeaPlacement(mq_pj, seed=seed + core)
            l2_repl = PeaLruReplacement()
        else:
            l2_placement = SlipPlacement(
                runtimes[core].spaces["L2"], runtimes[core], mq_pj
            )
            l2_repl = LruReplacement()
        hierarchies.append(
            MemoryHierarchy(
                config,
                l2_placement=l2_placement,
                l3_placement=l3_placement,
                runtime=runtimes[core],
                l2_replacement=l2_repl,
                track_slip_metadata_energy=slip,
                shared_l3=(shared_l3, l3_placement),
            )
        )
    return runtimes, shared_l3, hierarchies


# slip-audit: twin=mix-kernel role=ref
def _run_mix_scalar(hierarchies: List[MemoryHierarchy],
                    shared_l3: CacheLevel, traces: List[Trace],
                    warmup_fraction: float) -> None:
    """The golden walk: round-robin accesses over the overlap window.

    A warmup prefix's statistics are discarded (SimPoint-style); during
    warmup, SLIP page-state transitions are accelerated to reach the
    steady state the paper's 500M-instruction runs operate in.
    """
    per_core = [
        (t.addresses.tolist(), t.is_write.tolist()) for t in traces
    ]
    shortest = min(len(a) for a, _ in per_core)
    warmup = int(shortest * warmup_fraction)
    for idx in range(warmup):
        for core, (addrs, writes) in enumerate(per_core):
            hierarchies[core].access(addrs[idx], writes[idx])
    for hierarchy in hierarchies:
        hierarchy.reset_stats()
    shared_l3.reset_stats()
    for idx in range(warmup, shortest):
        for core, (addrs, writes) in enumerate(per_core):
            hierarchies[core].access(addrs[idx], writes[idx])


def _collect_mix(policy: str, mix: Tuple[str, str], runtimes: List,
                 shared_l3: CacheLevel,
                 hierarchies: List[MemoryHierarchy]) -> MulticoreResult:
    """Finalize every level once and gather the published figures."""
    for hierarchy in hierarchies:
        hierarchy.finalize()
    # Each hierarchy's finalize() skips the shared L3; its resident
    # lines are folded into the reuse histogram exactly once, here.
    shared_l3.record_resident_reuse()
    shared_l3.stats.materialize()

    # Aggregate per-channel DRAM ledgers. Counts are integers; the
    # energy total is assigned once via fsum over the materialized
    # per-channel products rather than accumulated with += (SLIP007).
    dram = DramStats()
    dram.reads = sum(h.dram.stats.reads for h in hierarchies)
    dram.writes = sum(h.dram.stats.writes for h in hierarchies)
    dram.energy_pj = math.fsum(
        h.dram.stats.energy_pj for h in hierarchies
    )
    dram_accesses = sum(h.dram.stats.accesses for h in hierarchies)

    eou_pj = 0.0
    if policy in ("slip", "slip_abp"):
        eou_pj = math.fsum(rt.eou_energy_pj("L3") for rt in runtimes)

    return MulticoreResult(
        policy=policy,
        mix=tuple(mix),
        l2_stats=[h.l2.stats for h in hierarchies],
        l3_stats=shared_l3.stats,
        dram=dram,
        eou_energy_pj=eou_pj,
        dram_accesses=dram_accesses,
    )

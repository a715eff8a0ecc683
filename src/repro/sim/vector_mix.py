"""Kernel path for multiprogrammed mixes (private L2s, one shared L3).

The scalar mix walk (:func:`repro.sim.multi_core._run_mix_scalar`)
sends every access of every core, round-robin, through
``MemoryHierarchy.access``. This module serves the same cell from the
existing kernels instead:

1. **Front end.** Each core's trace (truncated to the shortest, where
   the walk stops) goes through the batched capture kernel
   (:func:`~repro.sim.vector_frontend.capture_front_end_vector`); its
   warmup equals the walk's ``int(shortest * fraction)``. The TLB and
   L1 are private, so the captures are independent.
2. **Baseline kinds** (baseline / nurapid / lru_pea). A core's private
   L2 sees only that core's events and nothing flows back up from the
   L3, so each L2 replays through the single-core kernel
   (:data:`~repro.sim.vector_replay._RUNNERS`) with its own placement
   and RNG. Each core's L3-bound lane (forwarded event, then the L2
   victim writeback) carries the access position of the event that
   produced it, and one stable argsort on ``pos * cores + core`` —
   the walk's round-robin order — merges the lanes for a single pass
   of the shared L3 (for lru_pea that pass draws the shared placement
   RNG in global fill order).
3. **Slip kinds** (slip / slip_abp). Reuse samples taken at the shared
   L3 steer the owning core's future L2 fills, so the levels are
   co-simulated by the N-core phase-split kernel
   (:func:`~repro.sim.vector_replay_slip.replay_slip_cores`).

DRAM transfers are charged to the core whose event caused them (an L3
miss, or the victim writeback of the L3 fill it triggered), exactly as
each core's hierarchy owns its DRAM channel in the walk. The always-on
``mix-replay-conservation`` invariant
(:func:`repro.analysis.invariants.check_mix_replay`) audits every run.

Declines (``False``; the caller walks the cell scalar) reuse the
single-core switches and eligibility checks, with the reason recorded
on every core's ``hierarchy.kernel_declines.mix`` and tallied by
:mod:`~repro.sim.kernel_report`: ``REPRO_FILTERED=0``,
``REPRO_VECTOR_FRONTEND=0``, ``REPRO_VECTOR_REPLAY=0``, SimCheck,
rd-block runtimes, non-stock placement or replacement, and — for slip
kinds — a core whose pages its shared-L3 router would send to another
core's runtime. Only the figures a
:class:`~repro.sim.multi_core.MulticoreResult` publishes are
reproduced (private L2 and shared L3 statistics, DRAM ledgers, EOU
energy); the kernel path leaves the L1 and latency counters, which a
mix never reports, untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis.invariants import check_mix_replay
from ..workloads.capture_store import (
    OP_DEMAND_MISS,
    OP_METADATA,
    OP_WRITEBACK,
    TraceCapture,
)
from ..workloads.trace import Trace
from .config import SystemConfig
from . import vector_frontend, vector_replay, vector_replay_slip
from .kernel_report import record_decline, record_success
from .vector_replay import (
    _RUNNERS,
    _derive_l3_stream,
    eligible_kind,
    vector_enabled,
)
from .vector_replay_slip import slip_eligible


def event_positions(capture: TraceCapture) -> np.ndarray:
    """The access position of every captured event.

    Metadata events are the TLB misses (one PTE line each), demand
    events the L1 misses, and writeback events the L1 misses that
    evicted a dirty line, each in capture order.
    """
    ops = np.asarray(capture.ops)
    pos = np.empty(ops.shape[0], dtype=np.int64)
    miss_pos = np.asarray(capture.l1_miss_pos)
    pos[ops == OP_METADATA] = capture.tlb_miss_pos
    pos[ops == OP_DEMAND_MISS] = miss_pos
    pos[ops == OP_WRITEBACK] = miss_pos[np.asarray(capture.l1_miss_wb) >= 0]
    return pos


def _eligible(hierarchies: Sequence, traces: Sequence[Trace]
              ) -> Optional[str]:
    """The replay flavour for a mix (a ``_RUNNERS`` key or ``"slip"``),
    or ``None`` after recording why the mix declines."""
    from .filtered import filtered_enabled

    lead, peers = hierarchies[0], hierarchies[1:]

    def decline(reason: str) -> None:
        record_decline(lead, "mix", reason, peers)

    if not filtered_enabled():
        decline("env:REPRO_FILTERED")
        return None
    if any(h.simcheck is not None for h in hierarchies):
        decline("simcheck")
        return None
    if not vector_enabled():
        decline("env:REPRO_VECTOR_REPLAY")
        return None
    if getattr(lead.runtime, "slip_enabled", False):
        router = lead.l3_placement.runtime
        runtimes = getattr(router, "runtimes", None)
        if (runtimes is None or len(runtimes) != len(hierarchies)
                or any(rt is not h.runtime
                       for rt, h in zip(runtimes, hierarchies))):
            decline("runtime:L3:routing")
            return None
        for core, (h, trace) in enumerate(zip(hierarchies, traces)):
            if not slip_eligible(h, l3_runtime=router, trace=trace):
                decline(h.kernel_declines.replay)
                return None
            # The shared-L3 closures sample into the issuing core's
            # page table, which is the router's choice only when every
            # page of the core routes back to it.
            pages = np.asarray(trace.addresses) >> h._page_shift
            if any(router._owner(page) is not h.runtime
                   for page in dict.fromkeys(pages.tolist())):
                decline(f"routing:core{core}")
                return None
        return "slip"
    # eligible_kind ties each core's L2 placement type to the shared
    # L3's, so every accepted core reports the same kind.
    for h in hierarchies:
        kind = eligible_kind(h)
        if kind is None:
            decline(h.kernel_declines.replay)
            return None
    return kind


def _replay_baseline_mix(kind: str, hierarchies: Sequence,
                         captures: Sequence[TraceCapture]) -> None:
    """Per-core L2 kernels, then one merged pass of the shared L3."""
    run = _RUNNERS[kind]
    cores = len(hierarchies)
    tallies2 = []
    l2_events: List[int] = []
    l2_consumed: List[int] = []
    lanes = []
    for core, (h, capture) in enumerate(zip(hierarchies, captures)):
        ops = np.asarray(capture.ops, dtype=np.uint8)
        addrs = np.asarray(capture.addrs, dtype=np.int64)
        pos = event_positions(capture)
        meas = pos >= capture.warmup
        tally2, miss2, victim2 = run(h.l2, h.l2_placement, ops, addrs,
                                     meas)
        tallies2.append(tally2)
        l2_events.append(int(np.count_nonzero(meas)))
        l2_consumed.append(
            sum(tally2.dh_sub) + sum(tally2.mh_sub)
            + tally2.demand_misses + tally2.metadata_misses
            + sum(tally2.wbin_sub)
            + int(np.count_nonzero(miss2 & meas & (ops == OP_WRITEBACK))))
        ops3, addrs3, meas3 = _derive_l3_stream(ops, addrs, meas, miss2,
                                                victim2)
        # The lane's slots are (forwarded event, victim writeback) per
        # L2 event, masked exactly as _derive_l3_stream masks them.
        slots = np.empty(2 * ops.shape[0], dtype=bool)
        slots[0::2] = miss2
        slots[1::2] = victim2 >= 0
        lanes.append((np.repeat(pos, 2)[slots] * cores + core,
                      ops3, addrs3, meas3))

    order = np.argsort(np.concatenate([lane[0] for lane in lanes]),
                       kind="stable")
    ops3, addrs3, meas3 = (np.concatenate([lane[i] for lane in lanes])[order]
                           for i in (1, 2, 3))
    owner = np.repeat(np.arange(cores),
                      [lane[1].shape[0] for lane in lanes])[order]
    shared_l3 = hierarchies[0].l3
    l3_placement = hierarchies[0].l3_placement
    tally3, miss3, victim3 = run(shared_l3, l3_placement, ops3, addrs3,
                                 meas3)

    # DRAM: every measured L3 miss (access or forwarded writeback) and
    # every measured L3 victim writeback is one transfer on the DRAM
    # channel of the core whose event caused it.
    missed = miss3 & meas3
    is_wb = ops3 == OP_WRITEBACK
    victims = (victim3 >= 0) & meas3

    def per_core(mask: np.ndarray) -> List[int]:
        return np.bincount(owner[mask], minlength=cores).tolist()

    demand_reads = per_core(missed & (ops3 == OP_DEMAND_MISS))
    metadata_reads = per_core(missed & (ops3 == OP_METADATA))
    writes = [a + b for a, b in zip(per_core(missed & is_wb),
                                    per_core(victims))]
    check_mix_replay(
        l2_events=l2_events, l2_consumed=l2_consumed,
        l3_forwarded=[int(np.count_nonzero(lane[3])) for lane in lanes],
        l3_consumed=(sum(tally3.dh_sub) + sum(tally3.mh_sub)
                     + tally3.demand_misses + tally3.metadata_misses
                     + sum(tally3.wbin_sub)
                     + int(np.count_nonzero(missed & is_wb))),
        dram_reads=[d + m for d, m in zip(demand_reads, metadata_reads)],
        dram_writes=writes,
        l3_misses=int(np.count_nonzero(missed)),
        l3_victim_wbs=int(np.count_nonzero(victims)),
    )

    for core, (h, tally2) in enumerate(zip(hierarchies, tallies2)):
        vector_replay.publish_level(
            h.l2, tally2, getattr(h.l2_placement, "movement_queue_pj", 0.0))
        counters = h.counters
        counters.dram_demand_reads = demand_reads[core]
        counters.dram_metadata_reads = metadata_reads[core]
        counters.dram_writebacks = writes[core]
        h.dram.stats.reads = demand_reads[core] + metadata_reads[core]
        h.dram.stats.writes = writes[core]
    vector_replay.publish_level(
        shared_l3, tally3, getattr(l3_placement, "movement_queue_pj", 0.0))


def _replay_slip_mix(hierarchies: Sequence, traces: Sequence[Trace],
                     captures: Sequence[TraceCapture]) -> None:
    """The N-core phase-split kernel over the shared L3."""
    lead = hierarchies[0]
    outcomes, tally3 = vector_replay_slip.replay_slip_cores(
        [(h, trace, capture, None)
         for h, trace, capture in zip(hierarchies, traces, captures)],
        lead.l3, lead.l3_placement)
    tallies = [o.tally2 for o in outcomes]
    check_mix_replay(
        l2_events=[o.demand_events + o.fetch_events + o.wb_events
                   for o in outcomes],
        l2_consumed=[sum(t.dh_sub) + sum(t.mh_sub) + t.demand_misses
                     + t.metadata_misses + sum(t.wbin_sub)
                     + t.forwarded_wbs for t in tallies],
        l3_forwarded=[t.demand_misses + t.metadata_misses
                      + t.forwarded_wbs + sum(t.wbout_sub)
                      for t in tallies],
        l3_consumed=(sum(tally3.dh_sub) + sum(tally3.mh_sub)
                     + tally3.demand_misses + tally3.metadata_misses
                     + sum(tally3.wbin_sub) + tally3.forwarded_wbs),
        dram_reads=[o.l3_reads for o in outcomes],
        dram_writes=[o.dram_writes for o in outcomes],
        l3_misses=(tally3.demand_misses + tally3.metadata_misses
                   + tally3.forwarded_wbs),
        l3_victim_wbs=sum(tally3.wbout_sub),
    )


# slip-audit: twin=mix-kernel role=fast
def try_run_mix(hierarchies: Sequence, traces: Sequence[Trace],
                config: SystemConfig,
                warmup_fraction: float) -> bool:
    """Replay one mix through the kernels; False to walk it instead.

    ``hierarchies`` are the freshly built per-core hierarchies sharing
    one L3 (and, for slip kinds, samplers already boosted exactly as
    the walk boosts them). On success every statistic a
    :class:`~repro.sim.multi_core.MulticoreResult` collects holds the
    scalar walk's value; the caller finalizes and collects as after the
    walk.
    """
    kind = _eligible(hierarchies, traces)
    if kind is None:
        return False
    lead, peers = hierarchies[0], hierarchies[1:]
    shortest = min(len(t) for t in traces)
    traces = [t if len(t) == shortest else t.sliced(0, shortest)
              for t in traces]
    captures = []
    for h, trace in zip(hierarchies, traces):
        capture = vector_frontend.capture_front_end_vector(
            h, trace, config, warmup_fraction)
        if capture is None:
            record_decline(lead, "mix", h.kernel_declines.frontend, peers)
            return False
        captures.append(capture)
    record_success(lead, "mix", peers)
    if kind == "slip":
        _replay_slip_mix(hierarchies, traces, captures)
    else:
        _replay_baseline_mix(kind, hierarchies, captures)
    return True

"""Phase-split replay kernel for slip-runtime-kind cells.

The scalar slip replay (:func:`repro.sim.filtered._replay_slip`) drives
the live :class:`~repro.core.runtime.SlipRuntime` at the captured TLB-
and L1-miss positions through the full hierarchy machinery — ``Line``
objects, ``FillOutcome`` allocation, placement dispatch and per-event
statistics bumps. Unlike the baseline-kind kernel
(:mod:`repro.sim.vector_replay`), the SLIP back end cannot be replayed
per set: reuse samples taken on L2/L3 hits and misses feed the page
state machine that steers *future* fills at both levels, so the two
levels must be co-simulated in global event order.

The kernel therefore splits the work differently:

* **Phase 1 (page-policy + placement pass)** — one merged-order sweep
  over the captured TLB-miss and L1-miss positions that (a) drives the
  real runtime's page machinery (``_key_metadata_fetches``: sampler RNG
  draws, page-state transitions, memoized EOU argmins and their live
  statistics) exactly where the scalar replay would, and (b) replays
  the L2/L3 back end against a *flat-array* way model — per-way tag /
  LRU-stamp / timestamp / chunk-state columns (one byte per slot
  where the values fit; hit counts saturate at the reuse histogram's
  ``>2`` bin) plus a global probe dict — instead of ``Line`` objects.
  Demand and metadata lines live in disjoint address regions, so a
  hit's line is metadata exactly when the access is, and a demand
  line's page is the access's page; the model stores neither. Cascade
  movement uses rotation
  tables precomputed for every ``(SLIP id, chunk)`` state, extending the
  ``chunk0_orders_by_id`` idea from :class:`~repro.core.policy.
  SlipSpace` to the non-insertion chunks. The sweep emits one packed
  annotation byte per level event (``(kind << 4) | (sublevel + 1)``)
  plus a per-TLB-miss metadata-fetch count; only the rare events
  (insertions, bypasses, movements, departures, writebacks-out, DRAM
  writes) are tallied inline.
* **Phase 2 (accounting pass)** — ``np.bincount`` over the measured
  slice of the annotation streams yields the per-sublevel hit /
  absorbed-writeback counts and the miss totals; the measured-phase
  latency is an exact integer dot product of demand counts and level
  latencies. The ``slip-vector-replay-conservation`` invariant
  (:func:`repro.analysis.invariants.check_slip_vector_replay`)
  cross-balances the annotation streams against the capture, the live
  runtime ledger and the inline tallies before anything is published
  through :meth:`~repro.mem.stats.LevelStats.adopt_counts`.

The kernel is written for N cores sharing one L3
(:func:`replay_slip_cores`, which multicore mixes call directly): each
core keeps its own L2 model, live runtime surface and annotation
streams, the shared L3 model is driven by every core's events, and
phase 1 walks the cores' captured positions in the scalar round-robin
order (:func:`merge_runs`) in one frame, loading a core's lane (its
position lists, L2 model and runtime surface) into locals once per
*run* of that core's events — the per-event body is inline and never
dispatches on the core. The single-core replay
(:func:`replay_capture_vector_slip`) is the one-core call.

Byte-identity with the scalar path holds because every stateful step is
reproduced in the scalar order: the level access counters tick per
event, the allocation rotors advance once per non-bypassed fill and
once per cascade victim selection, LRU stamps come from a per-level
monotone clock, timestamps quantize the post-tick access counter, and
the sampler RNG/EOU sequence is the real runtime's own. The scalar walk
remains the golden reference: ``REPRO_VECTOR_REPLAY=0``, SimCheck,
rd-block mode, non-SLIP placements, foreign runtimes, non-LRU
replacement ablations and traces reaching into the metadata address
region all decline cleanly (reason recorded via
:func:`repro.sim.vector_replay.record_decline`).
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..analysis.invariants import check_slip_vector_replay
from ..core.controller import SlipPlacement
from ..core.sampling import PageState
from ..mem.replacement import LruReplacement
from ..mem.tlb import PTES_PER_LINE, PTE_TABLE_BASE
from ..workloads.capture_store import TraceCapture
from ..workloads.trace import Trace
from .vector_replay import record_decline, vector_enabled

_INF = float("inf")

#: ``CacheLevel``'s allocation rotor counts modulo this (the ``% 64`` of
#: every fill below).
_ROTOR_SPAN = 64

#: Annotation kinds, packed as ``(kind << 4) | (sublevel + 1)`` into one
#: byte per level event. The sublevel bits stay zero where no way was
#: resolved (misses, forwarded writebacks).
ANN_DEMAND_HIT = 0
ANN_METADATA_HIT = 1
ANN_DEMAND_MISS = 2
ANN_METADATA_MISS = 3
ANN_WB_ABSORBED = 4
ANN_WB_FORWARDED = 5

_MISS_D = ANN_DEMAND_MISS << 4
_MISS_M = ANN_METADATA_MISS << 4
_FWD = ANN_WB_FORWARDED << 4
_ANN_SPAN = 96  # one past the largest code (_FWD + num_sublevels)

#: Insertion classes in tally order (Figure 14).
_CLASSES = ("abp", "partial_bypass", "default", "other")


class SlipLevelTally:
    """Measured-phase event counts for one SLIP-managed level.

    Hit / miss / absorbed-writeback columns come from the phase-2
    annotation bincount; the rest are phase-1 inline tallies. The
    conservation invariant cross-checks the two sources against each
    other and against the capture.
    """

    __slots__ = (
        "nsub", "dh_sub", "mh_sub", "demand_misses", "metadata_misses",
        "ins_sub", "bypasses", "class_counts", "mvr_sub", "mvw_sub",
        "wbin_sub", "wbout_sub", "forwarded_wbs", "hist",
    )

    def __init__(self, nsub: int) -> None:
        self.nsub = nsub
        self.dh_sub: List[int] = [0] * nsub
        self.mh_sub: List[int] = [0] * nsub
        self.demand_misses = 0
        self.metadata_misses = 0
        self.ins_sub: List[int] = [0] * nsub
        self.bypasses = 0
        self.class_counts: List[int] = [0, 0, 0, 0]
        self.mvr_sub: List[int] = [0] * nsub
        self.mvw_sub: List[int] = [0] * nsub
        self.wbin_sub: List[int] = [0] * nsub
        self.wbout_sub: List[int] = [0] * nsub
        self.forwarded_wbs = 0
        self.hist: List[int] = [0, 0, 0, 0]


def slip_eligible(hierarchy, l3_runtime=None, trace=None) -> bool:
    """Whether the SLIP kernel may replay this hierarchy.

    Exact-type checks, like :func:`~repro.sim.vector_replay.
    eligible_kind`: a subclassed placement or replacement could observe
    events the kernel never generates. Unlike the baseline-kind kernel,
    metadata-energy tracking is supported (SLIP levels always track it;
    the event count is a derived total here). ``l3_runtime`` names the
    runtime the L3 placement must consult when it is not the
    hierarchy's own (a mix's shared L3 routes to every core's runtime).
    With a ``trace``, its addresses must stay below the metadata region
    (the flat model tells metadata lines from demand lines by the
    access alone). Declines record a reason on
    ``hierarchy.vector_replay_decline``.
    """
    if hierarchy.simcheck is not None:
        record_decline(hierarchy, "simcheck")
        return False
    runtime = hierarchy.runtime
    if not getattr(runtime, "slip_enabled", False):
        record_decline(hierarchy, "kind:not-slip")
        return False
    if runtime.block_shift is not None:
        record_decline(hierarchy, "rd-block")
        return False
    if (trace is not None and len(trace)
            and int(trace.addresses.max()) >= PTE_TABLE_BASE):
        record_decline(hierarchy, "address:metadata-region")
        return False
    for level, placement, owner in (
            (hierarchy.l2, hierarchy.l2_placement, runtime),
            (hierarchy.l3, hierarchy.l3_placement, l3_runtime or runtime)):
        if type(placement) is not SlipPlacement:
            record_decline(
                hierarchy,
                f"placement:{level.cfg.name}:{type(placement).__name__}")
            return False
        # A routed L3 is duck-typed (no paged fast path); it must
        # route to exactly the runtimes the caller hands the kernel.
        bound = (placement.runtime if owner is l3_runtime
                 else placement._paged_runtime)
        if bound is not owner:
            record_decline(hierarchy, f"runtime:{level.cfg.name}:foreign")
            return False
        if type(level.replacement) is not LruReplacement:
            record_decline(
                hierarchy,
                f"replacement:{level.cfg.name}:"
                f"{type(level.replacement).__name__}")
            return False
    return True


_LEVEL_MODEL_CACHE: Dict[Tuple, Tuple] = {}


def _level_model(level, placement) -> Tuple:
    """Structural constants of one SLIP level for the flat-array model.

    Each slot's SLIP metadata is one *chunk state* ``pid * K + chunk``
    (``K`` = the most chunks any SLIP id has), so a fill writes one
    byte and the cascade test reads one. ``rot0[pid]`` holds every
    rotation of the insertion chunk's ways (empty for the All-Bypass
    Policy), ``rots[state][r]`` the way visit order ``choose_victim``
    produces for allocation-rotor value ``r`` (``0 <= r < 64``, the
    rotor's whole range, so a fill indexes it without a modulo) on that
    state's chunk, and
    ``moves[state]`` whether a victim in that state moves on to a next
    chunk (else it leaves the level). The chunk-0 slice reproduces
    ``SlipSpace.chunk0_orders_by_id``; the deeper chunks extend the same
    precomputation to cascade victim selection. Memoised on the
    hashable structural inputs (the SlipSpace way/class tables plus the
    level's sublevel/latency shape), so repeated replays of the same
    hierarchy shape skip the table construction per call.
    """
    space = placement.space
    nsub = level.cfg.num_sublevels
    sub = tuple(level.sublevel_by_way)
    lat = tuple(level.latency_by_way)
    key = (space.chunk_ways_by_id, space.class_by_id, nsub, sub, lat)
    cached = _LEVEL_MODEL_CACHE.get(key)
    if cached is None:
        chunks_by_id = space.chunk_ways_by_id
        k = max(1, max(len(per_chunk) for per_chunk in chunks_by_id))
        rots: List[Tuple] = []
        moves: List[bool] = []
        for per_chunk in chunks_by_id:
            for chunk in range(k):
                ways = per_chunk[chunk] if chunk < len(per_chunk) else ()
                rots.append(tuple(
                    ways[r % len(ways):] + ways[:r % len(ways)]
                    for r in range(_ROTOR_SPAN)) if ways else ())
                moves.append(chunk + 1 < len(per_chunk))
        rot0 = tuple(rots[pid * k] for pid in range(len(chunks_by_id)))
        cls_idx = tuple(_CLASSES.index(c) for c in space.class_by_id)
        lat_by_sub = [0] * nsub
        for way, s in enumerate(sub):
            lat_by_sub[s] = lat[way]
        cached = (rot0, tuple(rots), tuple(moves), k, cls_idx, nsub, sub,
                  tuple(lat_by_sub))
        _LEVEL_MODEL_CACHE[key] = cached
    return cached


_CODE_TABLE_CACHE: Dict[Tuple, Tuple] = {}


def _code_tables(sub: Tuple[int, ...], ways: int, size: int) -> Tuple:
    """Flat-index annotation code tables, memoised per geometry.

    Pure function of the way->sublevel map and the flat array size, so
    repeated replays of the same hierarchy shape (every sweep) skip the
    table construction per call. Codes fit a byte, so each table is a
    ``bytes`` object (one byte per slot, not an 8-byte pointer).
    """
    key = (sub, size)
    cached = _CODE_TABLE_CACHE.get(key)
    if cached is None:
        row = bytes(sub[way] for way in range(ways))
        reps = size // ways
        cached = (
            bytes(code + 1 for code in row) * reps,
            bytes(17 + code for code in row) * reps,
            bytes(65 + code for code in row) * reps,
        )
        _CODE_TABLE_CACHE[key] = cached
    return cached


def _column(size: int, limit: int):
    """A zeroed per-way column of the flat model.

    One byte per slot when every value the column can hold is at most
    ``limit < 256`` (timestamps, chunk states, dirty bits),
    otherwise a list: the flat model allocates every column for the
    level's full capacity, and short runs touch a sliver of it.
    """
    return bytearray(size) if limit < 256 else [0] * size


def _slip_lists(hierarchy, trace: Trace, capture: TraceCapture, plan):
    """Captured positions resolved to addresses/pages/PTE lines.

    Both position lists end with the sentinel ``n`` (>= every stop), so
    the merge walk needs no bounds checks. Plan lists are shared across
    cells and already carry the sentinels; the kernel never mutates
    them.
    """
    if plan is not None:
        return plan.slip_lists(capture)
    n = capture.n
    shift = hierarchy._page_shift
    addresses = trace.addresses
    miss_positions = capture.l1_miss_pos.tolist()
    miss_np = addresses[np.asarray(capture.l1_miss_pos)]
    tlb_positions = capture.tlb_miss_pos.tolist()
    tlb_pages_np = addresses[np.asarray(capture.tlb_miss_pos)] >> shift
    tlb_positions.append(n)
    miss_positions.append(n)
    return (miss_positions, miss_np.tolist(), (miss_np >> shift).tolist(),
            capture.l1_miss_wb.tolist(), tlb_positions,
            tlb_pages_np.tolist(),
            (PTE_TABLE_BASE + tlb_pages_np // PTES_PER_LINE).tolist())


def merge_runs(captures: Sequence[TraceCapture], lo: int,
               hi: int) -> Iterable[Tuple[int, int]]:
    """The ``(core, stop)`` schedule of a merged walk over ``[lo, hi)``.

    The walk's round-robin order puts every core's events at access
    position ``p`` before any event at ``p + 1``, core 0 first, so the
    merged order is a stable sort on ``pos * cores + core``. A *run* is
    a maximal stretch of one core's events in that order; it ends at
    the core's last event position ``q``, so ``(core, q + 1)`` tells
    that core's walk to consume everything before ``q + 1``. (Events
    of one ``(pos, core)`` group are always contiguous, so a run never
    splits one.) A single core is one run per phase.
    """
    cores = len(captures)
    if cores == 1:
        return ((0, hi),)
    keys = []
    for core, capture in enumerate(captures):
        # Repeated positions are harmless: a run's stop only depends on
        # its last position.
        pos = np.concatenate((capture.tlb_miss_pos, capture.l1_miss_pos))
        pos = pos[(pos >= lo) & (pos < hi)]
        keys.append(pos * cores + core)
    merged = np.sort(np.concatenate(keys))
    if not merged.shape[0]:
        return ()
    owner = merged % cores
    ends = np.append(np.flatnonzero(owner[1:] != owner[:-1]),
                     merged.shape[0] - 1)
    return zip(owner[ends].tolist(), (merged[ends] // cores + 1).tolist())


class SlipCoreOutcome:
    """What one core contributed to a (possibly shared-L3) SLIP replay.

    ``l3_reads`` are the DRAM reads this core's L3 misses caused and
    ``dram_writes`` the DRAM writebacks its events emitted (forwarded
    or evicted at L3); the event counts are the measured captured
    boundary this core fed into its L2.
    """

    __slots__ = ("tally2", "l3_reads", "dram_writes", "demand_events",
                 "fetch_events", "wb_events")

    def __init__(self, tally2: SlipLevelTally, l3_reads: int,
                 dram_writes: int, demand_events: int, fetch_events: int,
                 wb_events: int) -> None:
        self.tally2 = tally2
        self.l3_reads = l3_reads
        self.dram_writes = dram_writes
        self.demand_events = demand_events
        self.fetch_events = fetch_events
        self.wb_events = wb_events


def _tally(counts: np.ndarray, nsub: int, ins: List[int], byp: int,
           cls: List[int], mvr: List[int], mvw: List[int],
           wbout: List[int], hist: List[int]) -> SlipLevelTally:
    """Phase-2 tally: annotation bincount plus the inline tallies."""
    tally = SlipLevelTally(nsub)
    tally.dh_sub = [int(counts[1 + s]) for s in range(nsub)]
    tally.mh_sub = [int(counts[17 + s]) for s in range(nsub)]
    tally.demand_misses = int(counts[_MISS_D])
    tally.metadata_misses = int(counts[_MISS_M])
    tally.wbin_sub = [int(counts[65 + s]) for s in range(nsub)]
    tally.forwarded_wbs = int(counts[_FWD])
    tally.ins_sub = list(ins)
    tally.bypasses = byp
    tally.class_counts = list(cls)
    tally.mvr_sub = list(mvr)
    tally.mvw_sub = list(mvw)
    tally.wbout_sub = list(wbout)
    tally.hist = list(hist)
    return tally


def _summed(tallies: Sequence[SlipLevelTally]) -> SlipLevelTally:
    """Field-wise sum of per-core L2 tallies (identity for one core)."""
    if len(tallies) == 1:
        return tallies[0]
    total = SlipLevelTally(tallies[0].nsub)
    for name in SlipLevelTally.__slots__[1:]:
        values = [getattr(t, name) for t in tallies]
        if isinstance(values[0], list):
            setattr(total, name, [sum(col) for col in zip(*values)])
        else:
            setattr(total, name, sum(values))
    return total


def _publish_slip_level(level, placement, tally: SlipLevelTally) -> None:
    dh = sum(tally.dh_sub)
    mh = sum(tally.mh_sub)
    insertions = sum(tally.ins_sub)
    metadata_events = (
        dh + mh + tally.demand_misses + tally.metadata_misses
        + insertions
    ) if level.track_metadata_energy else 0
    level.stats.adopt_counts(
        demand_hits=dh,
        demand_misses=tally.demand_misses,
        metadata_hits=mh,
        metadata_misses=tally.metadata_misses,
        hits_by_sublevel=[d + m for d, m in
                          zip(tally.dh_sub, tally.mh_sub)],
        insert_events=list(tally.ins_sub),
        move_read_events=list(tally.mvr_sub),
        move_write_events=list(tally.mvw_sub),
        wb_in_events=list(tally.wbin_sub),
        wb_out_events=list(tally.wbout_sub),
        reuse_histogram={
            "0": tally.hist[0], "1": tally.hist[1],
            "2": tally.hist[2], ">2": tally.hist[3],
        },
        insertions_by_class={
            "abp": tally.class_counts[0],
            "partial_bypass": tally.class_counts[1],
            "default": tally.class_counts[2],
            "other": tally.class_counts[3],
        },
        bypasses=tally.bypasses,
        dirty_bypass_forwards=0,
        metadata_events=metadata_events,
        movement_queue_events=sum(tally.mvr_sub),
        movement_queue_pj=placement.movement_queue_pj,
    )


def replay_capture_vector_slip(hierarchy, trace: Trace,
                               capture: TraceCapture,
                               plan=None) -> bool:
    """Phase-split replay of a slip-kind capture; False to fall back.

    On success the hierarchy's L2/L3/DRAM statistics, counters and the
    live runtime/TLB ledgers hold exactly what the scalar replay would
    have produced; the cache arrays themselves stay empty (``finalize``
    adds nothing — resident-line reuse is accounted here) and the
    always-on ``capture-replay-conservation`` audit still runs in the
    caller. A verified :class:`~repro.sim.replay_plan.ReplayPlan`
    supplies the captured-position address/page/PTE resolutions (and
    their sentinel-terminated list forms) precomputed; ``plan=None``
    derives them locally with the same arithmetic. The replay itself
    is the one-core case of :func:`replay_slip_cores`.
    """
    from .kernel_report import record_success
    if not vector_enabled():
        record_decline(hierarchy, "env:REPRO_VECTOR_REPLAY")
        return False
    if not slip_eligible(hierarchy, trace=trace):
        return False
    record_success(hierarchy, "replay")
    replay_slip_cores([(hierarchy, trace, capture, plan)],
                      hierarchy.l3, hierarchy.l3_placement)
    return True


def _l2_lane(hierarchy, trace: Trace, capture: TraceCapture, plan,
             name3: str) -> Tuple[Tuple, List, Tuple]:
    """One core's private L2 model, runtime surface and event streams.

    Returns ``(lane, state, books)``. The phase-1 loop loads ``lane``
    (position lists, live runtime surface, L2 flat columns and
    constants, inline tallies, annotation appends) at the start of each
    of this core's runs, and ``state``, the core's mutable scalars
    ``[a2, r2, c2, byp2, dram_wb, ti, mi, misses]`` (L2 access counter,
    allocation rotor and LRU clock; bypass and DRAM-writeback tallies;
    the merge cursor: TLB-miss index, L1-miss index, measured TLB
    misses), which it stores back at the end of each run. ``books``
    holds what the warmup reset and :func:`_finish_lane` need.
    """
    runtime = hierarchy.runtime
    l2 = hierarchy.l2
    placement = hierarchy.l2_placement
    rot0, rots, moves, k, cidx, nsub, sub, lat = _level_model(l2, placement)
    lists = _slip_lists(hierarchy, trace, capture, plan)
    size = l2.num_sets * l2.cfg.ways
    mask = l2._ts_mask
    hits = _column(size, 3)
    d2: dict = {}
    tallies = ([0] * nsub, [0] * nsub, [0] * nsub, [0] * nsub,
               [0, 0, 0, 0], [0, 0, 0, 0])
    ann2 = bytearray()
    ann3 = bytearray()
    fetch_ann = bytearray()
    lane = (
        *lists, runtime, fetch_ann.append, runtime.pages.get,
        runtime.always_sample, placement._level_name,
        runtime._default_ids[name3],
        # ----- private L2 flat-array model -----
        [-1] * size, [0] * size, _column(size, mask), hits,
        _column(size, len(moves) - 1), _column(size, 1), d2, d2.get,
        rot0, rots, moves, k, cidx, sub,
        l2.num_sets, l2.cfg.ways, l2.timestamp_wrap, l2._granule, mask,
        l2.cfg.lines - 1, placement._level_default_id,
        placement._default_id, l2.cfg.ways * (nsub + 1),
        *_code_tables(sub, l2.cfg.ways, size),
        # ----- inline tallies (rare events) + annotation streams -----
        *tallies, ann2.append, ann3.append,
    )
    state = [l2.access_counter, l2._alloc_rotor, l2.replacement._clock,
             0, 0, 0, 0, 0]
    books = (tallies, ann2, ann3, fetch_ann, d2, hits, nsub, lat)
    return lane, state, books


def _finish_lane(books: Tuple, state: List, capture: TraceCapture,
                 marks: Tuple) -> Tuple[np.ndarray, Tuple, int,
                                        SlipCoreOutcome]:
    """Resident sweep and phase-2 tallies of one core's lane.

    ``marks`` are the stream offsets at the warmup boundary (``ann2``,
    ``ann3``, ``fetch_ann``, L1-miss index). Returns the core's L3
    annotation bincount, its L2 latencies by sublevel, its measured TLB
    misses and its outcome.
    """
    tallies, ann2, ann3, fetch_ann, d2, hits2, nsub2, lat2 = books
    ins2, mvr2, mvw2, wbout2, cls2, hist2 = tallies
    # finalize()'s resident-line reuse sweep (the real arrays are
    # empty).
    for f in d2.values():
        hist2[hits2[f]] += 1
    b2, b3, bf, measured_miss_start = marks
    byp2, dram_wb = state[3], state[4]
    tally2 = _tally(
        np.bincount(np.frombuffer(ann2, dtype=np.uint8)[b2:],
                    minlength=_ANN_SPAN),
        nsub2, ins2, byp2, cls2, mvr2, mvw2, wbout2, hist2)
    counts3 = np.bincount(np.frombuffer(ann3, dtype=np.uint8)[b3:],
                          minlength=_ANN_SPAN)
    outcome = SlipCoreOutcome(
        tally2,
        l3_reads=int(counts3[_MISS_D] + counts3[_MISS_M]),
        dram_writes=dram_wb,
        demand_events=(int(capture.l1_miss_pos.shape[0])
                       - measured_miss_start),
        fetch_events=int(
            np.frombuffer(fetch_ann, dtype=np.uint8)[bf:].sum()),
        wb_events=int(
            (capture.l1_miss_wb[measured_miss_start:] >= 0).sum()),
    )
    return counts3, lat2, state[7], outcome


# slip-audit: twin=slip-vector-replay role=fast
def replay_slip_cores(cores: Sequence[Tuple], l3, l3_placement
                      ) -> Tuple[List[SlipCoreOutcome], SlipLevelTally]:
    """Phase-split SLIP replay of N cores' captures over one L3.

    ``cores`` holds one ``(hierarchy, trace, capture, plan)`` per core,
    all with the same trace length and warmup; each core keeps its own
    L2 flat-array model, live runtime surface and annotation streams
    (its *lane*, :func:`_l2_lane`), while ``l3`` (every hierarchy's L3)
    is modelled once and shared. Phase 1 walks every core's captured
    TLB-miss and L1-miss positions in the scalar round-robin order
    (:func:`merge_runs`) in this one frame: a core's lane is loaded into
    locals at the start of each of its *runs* and its scalars stored
    back at the end, so the per-event body never calls out (except
    into the live runtime's page machinery) and never dispatches on the
    core. L3 annotations go to the issuing core's stream, so DRAM reads
    and latency split by core. Callers have checked eligibility; the
    tallies are audited by ``slip-vector-replay-conservation`` and
    published through ``adopt_counts`` before this returns the per-core
    outcomes and the shared L3 tally.

    The cyclic garbage collector is paused for the call (and restored
    to its previous state on every exit): the replay allocates no
    cycles, so a collection here would only walk the live heap, and
    memory is still freed by reference counting.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        (rot0_3, rots3, moves3, k3, cidx3, nsub3, sub3,
         lat3) = _level_model(l3, l3_placement)
        name3 = l3_placement._level_name

        # ----- shared L3 flat-array model -----
        S3, W3 = l3.num_sets, l3.cfg.ways
        wrap3, gran3, mask3 = l3.timestamp_wrap, l3._granule, l3._ts_mask
        maxd3 = l3.cfg.lines - 1
        sdef3 = l3_placement._default_id
        guard3 = W3 * (nsub3 + 1)
        size3 = S3 * W3
        tag3 = [-1] * size3
        lru3 = [0] * size3
        ts3 = _column(size3, mask3)
        hits3 = _column(size3, 3)
        st3 = _column(size3, len(moves3) - 1)
        dirty3 = _column(size3, 1)
        # Global probe dict: line address -> flat index (set * ways +
        # way). Addresses are globally unique across sets, so one dict
        # replaces the per-set index and the hit path needs no set
        # arithmetic.
        d3: dict = {}
        # Mutable machine state, mirroring the scalar level: access
        # counter T, allocation rotor, LRU clock.
        a3 = l3.access_counter
        r3 = l3._alloc_rotor
        c3 = l3.replacement._clock
        ins3 = [0] * nsub3
        mvr3 = [0] * nsub3
        mvw3 = [0] * nsub3
        wbout3 = [0] * nsub3
        cls3 = [0, 0, 0, 0]
        hist3 = [0, 0, 0, 0]
        byp3 = 0
        # Per-flat-index annotation codes, sublevel pre-resolved
        # (indexable straight off a probe-dict hit without recovering
        # the way).
        hd3, hm3, wa3 = _code_tables(sub3, W3, size3)
        d3_get = d3.get
        SAMPLING = PageState.SAMPLING

        lanes = [_l2_lane(*core, name3) for core in cores]
        captures = [core[2] for core in cores]
        warmup, n = captures[0].warmup, captures[0].n
        # Per core: stream offsets at the warmup boundary (ann2, ann3,
        # fetch_ann, L1-miss index).
        marks = [(0, 0, 0, 0)] * len(cores)

        # ----- phase 1: merged-order sweep (warmup, then measured) ---
        for phase, (lo, hi) in enumerate(((0, warmup), (warmup, n))):
            for core, stop in merge_runs(captures, lo, hi):
                # Load this core's lane for the run. The loop lives in
                # this body (not a per-core closure) so the audit's
                # effect engine sees the live runtime drive.
                (miss_pos, m_addrs, m_pages, m_wbs, tlb_pos, t_pages,
                 ptes, runtime, fetch_app, pages_get, always, name2, def3,
                 tag2, lru2, ts2, hits2, st2, dirty2, d2, d2_get,
                 rot0_2, rots2, moves2, k2, cidx2, sub2,
                 S2, W2, wrap2, gran2, mask2, maxd2, def2, sdef2, guard2,
                 hd2, hm2, wa2, ins2, mvr2, mvw2, wbout2, cls2, hist2,
                 ann2_app, ann3_app), state, _ = lanes[core]
                a2, r2, c2, byp2, dram_wb, ti, mi, misses = state
                key_fetches = runtime._key_metadata_fetches
                while True:
                    tlb_p = tlb_pos[ti]
                    miss_p = miss_pos[mi]
                    # One event group per iteration: a TLB miss's
                    # metadata lines, or an L1 miss's demand line plus
                    # its L1 victim's writeback. A TLB miss at the same
                    # position goes first.
                    if tlb_p <= miss_p:
                        if tlb_p >= stop:
                            break
                        # Mirror on_reference: the fetch list (and the
                        # page state machinery) runs before the
                        # metadata lines travel below L1.
                        fetches = key_fetches(t_pages[ti])
                        fetch_app(1 + len(fetches))
                        group = (ptes[ti], *fetches)
                        ti += 1
                        misses += 1
                        is_meta = True
                        page = -1
                        wba = -1
                    else:
                        if miss_p >= stop:
                            break
                        group = (m_addrs[mi],)
                        page = m_pages[mi]
                        wba = m_wbs[mi]
                        mi += 1
                        is_meta = False
                    for addr in group:
                        # Mirror of ``_access_below_l1``: L2 -> L3 ->
                        # DRAM + fills, then the writebacks.
                        wb = -1  # the L2 victim's writeback into L3
                        a2 += 1
                        if a2 == wrap2:
                            a2 = 0
                        f = d2_get(addr)
                        if f is not None:
                            if hits2[f] < 3:  # saturates at the >2 bin
                                hits2[f] += 1
                            ann2_app(hm2[f] if is_meta else hd2[f])
                            c2 += 1
                            lru2[f] = c2
                            now = (a2 // gran2) & mask2
                            # on_hit: reuse-distance sample for sampling
                            # pages + TL. A line is metadata exactly when
                            # the access is (demand lines never reach the
                            # metadata region), and a demand line's page
                            # is the access's own page.
                            if not is_meta:
                                pe = pages_get(page)
                                if pe is not None and (
                                        always or pe.state is SAMPLING):
                                    distance = ((now - ts2[f]) & mask2) \
                                        * gran2
                                    if distance > maxd2:
                                        distance = maxd2
                                    # ``ReuseDistanceDistribution.record``
                                    # inlined, as at every sample site.
                                    dist = pe.distributions[name2]
                                    counts = dist.counts
                                    b = bisect_right(dist.boundaries,
                                                     distance)
                                    if counts[b] >= dist.counter_max:
                                        dist.counts = counts = [
                                            c >> 1 for c in counts]
                                    counts[b] += 1
                                    if pe.period_samples < 63:
                                        pe.period_samples += 1
                            ts2[f] = now
                        else:
                            ann2_app(_MISS_M if is_meta else _MISS_D)
                            # One page-entry probe per event resolves
                            # the sampling test and both levels' fill
                            # SLIP ids: nothing between here and the
                            # fills can change the page table
                            # (recomputation only happens inside
                            # key_fetches, between event groups).
                            if is_meta:
                                pe = None
                                sampling = False
                                sid2 = sdef2
                                sid3 = sdef3
                            else:
                                pe = pages_get(page)
                                if pe is None:
                                    sampling = False
                                    sid2 = def2
                                    sid3 = def3
                                elif pe.state is SAMPLING:
                                    sampling = True
                                    sid2 = def2
                                    sid3 = def3
                                else:
                                    sampling = always
                                    policies = pe.policies
                                    sid2 = policies[name2]
                                    sid3 = policies[name3]
                                if page < 0:
                                    sid2 = sdef2
                                    sid3 = sdef3
                            if sampling:
                                # record_miss_sample("L2", page); the
                                # period count for this and the L3
                                # sample below is bumped once, by 2.
                                dist = pe.distributions[name2]
                                counts = dist.counts
                                if counts[-1] >= dist.counter_max:
                                    dist.counts = counts = [
                                        c >> 1 for c in counts]
                                counts[-1] += 1
                                samples = pe.period_samples + 2
                                pe.period_samples = (samples if samples < 63
                                                     else 63)

                            # ----- L3 ----- (shared: every line in it
                            # belongs to the core that filled it, so this
                            # core's page table serves every sample
                            # taken on a line it hits.)
                            a3 += 1
                            if a3 == wrap3:
                                a3 = 0
                            f = d3_get(addr)
                            if f is not None:
                                if hits3[f] < 3:
                                    hits3[f] += 1
                                ann3_app(hm3[f] if is_meta else hd3[f])
                                c3 += 1
                                lru3[f] = c3
                                now = (a3 // gran3) & mask3
                                if sampling:
                                    distance = ((now - ts3[f]) & mask3) \
                                        * gran3
                                    if distance > maxd3:
                                        distance = maxd3
                                    dist = pe.distributions[name3]
                                    counts = dist.counts
                                    b = bisect_right(dist.boundaries,
                                                     distance)
                                    if counts[b] >= dist.counter_max:
                                        dist.counts = counts = [
                                            c >> 1 for c in counts]
                                    counts[b] += 1
                                ts3[f] = now
                            else:
                                ann3_app(_MISS_M if is_meta else _MISS_D)
                                if sampling:
                                    dist = pe.distributions[name3]
                                    counts = dist.counts
                                    if counts[-1] >= dist.counter_max:
                                        dist.counts = counts = [
                                            c >> 1 for c in counts]
                                    counts[-1] += 1
                                # SLIP fill at L3. The DRAM read is
                                # derived from the miss annotation in
                                # phase 2; fills on this path are never
                                # dirty.
                                orders = rot0_3[sid3]
                                if not orders:  # All-Bypass Policy
                                    byp3 += 1
                                    cls3[cidx3[sid3]] += 1
                                else:
                                    r3 = (r3 + 1) % 64
                                    order = orders[r3]
                                    base = (addr % S3) * W3
                                    # Merged invalid-first/min-LRU scan;
                                    # see the L2 fill.
                                    vw = -1
                                    best = _INF
                                    for w in order:
                                        stamp = lru3[base + w]
                                        if stamp < best:
                                            vw = w
                                            if not stamp:
                                                break
                                            best = stamp
                                    f = base + vw
                                    cv = None
                                    vt = tag3[f]
                                    if vt >= 0:
                                        del d3[vt]
                                        vst = st3[f]
                                        if moves3[vst]:
                                            cv = (vt, dirty3[f], vst,
                                                  ts3[f], hits3[f], lru3[f],
                                                  vw)
                                        else:
                                            hist3[hits3[f]] += 1
                                            if dirty3[f]:
                                                wbout3[sub3[vw]] += 1
                                                dram_wb += 1
                                    tag3[f] = addr
                                    d3[addr] = f
                                    dirty3[f] = False
                                    st3[f] = sid3 * k3
                                    ts3[f] = (a3 // gran3) & mask3
                                    hits3[f] = 0
                                    c3 += 1
                                    lru3[f] = c3
                                    ins3[sub3[vw]] += 1
                                    cls3[cidx3[sid3]] += 1
                                    if cv is not None:
                                        (vt, vdirty, vst, vts, vhits, vlru,
                                         vfrom) = cv
                                        guard = guard3
                                        while True:
                                            guard -= 1
                                            if guard <= 0 or not moves3[vst]:
                                                hist3[vhits] += 1
                                                if vdirty:
                                                    wbout3[sub3[vfrom]] += 1
                                                    dram_wb += 1
                                                break
                                            vst += 1
                                            orders = rots3[vst]
                                            r3 = (r3 + 1) % 64
                                            order = orders[r3]
                                            w = -1
                                            best = _INF
                                            for cand in order:
                                                stamp = lru3[base + cand]
                                                if stamp < best:
                                                    w = cand
                                                    if not stamp:
                                                        break
                                                    best = stamp
                                            f = base + w
                                            dt = tag3[f]
                                            if dt >= 0:
                                                disp = (dt, dirty3[f],
                                                        st3[f], ts3[f],
                                                        hits3[f], lru3[f], w)
                                                del d3[dt]
                                            else:
                                                disp = None
                                            tag3[f] = vt
                                            d3[vt] = f
                                            dirty3[f] = vdirty
                                            st3[f] = vst
                                            ts3[f] = vts
                                            hits3[f] = vhits
                                            lru3[f] = vlru
                                            mvr3[sub3[vfrom]] += 1
                                            mvw3[sub3[w]] += 1
                                            if disp is None:
                                                break
                                            (vt, vdirty, vst, vts, vhits,
                                             vlru, vfrom) = disp

                            # Fill L2 on the way back (possibly
                            # bypassed); never dirty on this path.
                            orders = rot0_2[sid2]
                            if not orders:  # All-Bypass Policy
                                byp2 += 1
                                cls2[cidx2[sid2]] += 1
                            else:
                                r2 = (r2 + 1) % 64
                                order = orders[r2]
                                base = (addr % S2) * W2
                                # Invalid slots keep lru == 0 forever
                                # (clocks start >= 0 and every fill
                                # stamps c2+1 >= 1), so one strict-min
                                # scan finds the first invalid way in
                                # rotation order, else the LRU way — the
                                # same choice as the scalar invalid-
                                # first/min-LRU walk.
                                vw = -1
                                best = _INF
                                for w in order:
                                    stamp = lru2[base + w]
                                    if stamp < best:
                                        vw = w
                                        if not stamp:
                                            break
                                        best = stamp
                                f = base + vw
                                cv = None
                                vt = tag2[f]
                                if vt >= 0:
                                    del d2[vt]
                                    vst = st2[f]
                                    if moves2[vst]:
                                        cv = (vt, dirty2[f], vst, ts2[f],
                                              hits2[f], lru2[f], vw)
                                    else:
                                        hist2[hits2[f]] += 1
                                        if dirty2[f]:
                                            wbout2[sub2[vw]] += 1
                                            wb = vt
                                tag2[f] = addr
                                d2[addr] = f
                                dirty2[f] = False
                                st2[f] = sid2 * k2
                                ts2[f] = (a2 // gran2) & mask2
                                hits2[f] = 0
                                c2 += 1
                                lru2[f] = c2
                                ins2[sub2[vw]] += 1
                                cls2[cidx2[sid2]] += 1
                                if cv is not None:
                                    (vt, vdirty, vst, vts, vhits, vlru,
                                     vfrom) = cv
                                    guard = guard2
                                    while True:
                                        guard -= 1
                                        if guard <= 0 or not moves2[vst]:
                                            hist2[vhits] += 1
                                            if vdirty:
                                                wbout2[sub2[vfrom]] += 1
                                                wb = vt
                                            break
                                        vst += 1
                                        orders = rots2[vst]
                                        r2 = (r2 + 1) % 64
                                        order = orders[r2]
                                        w = -1
                                        best = _INF
                                        for cand in order:
                                            stamp = lru2[base + cand]
                                            if stamp < best:
                                                w = cand
                                                if not stamp:
                                                    break
                                                best = stamp
                                        f = base + w
                                        dt = tag2[f]
                                        if dt >= 0:
                                            disp = (dt, dirty2[f], st2[f],
                                                    ts2[f], hits2[f],
                                                    lru2[f], w)
                                            del d2[dt]
                                        else:
                                            disp = None
                                        tag2[f] = vt
                                        d2[vt] = f
                                        dirty2[f] = vdirty
                                        st2[f] = vst
                                        ts2[f] = vts
                                        hits2[f] = vhits
                                        lru2[f] = vlru
                                        mvr2[sub2[vfrom]] += 1
                                        mvw2[sub2[w]] += 1
                                        if disp is None:
                                            break
                                        (vt, vdirty, vst, vts, vhits, vlru,
                                         vfrom) = disp

                        # ----- writebacks: the L2 victim's into L3,
                        # then (demand groups) the L1 victim's into L2,
                        # forwarded to L3 on an L2 miss. Mirrors of
                        # ``_writeback_to_l3`` / ``_writeback_below_l1``.
                        while True:
                            if wb >= 0:
                                a3 += 1
                                if a3 == wrap3:
                                    a3 = 0
                                f = d3_get(wb)
                                if f is not None:
                                    dirty3[f] = True
                                    ann3_app(wa3[f])
                                else:
                                    ann3_app(_FWD)
                                    dram_wb += 1
                            if wba < 0:
                                break
                            a2 += 1
                            if a2 == wrap2:
                                a2 = 0
                            f = d2_get(wba)
                            if f is not None:
                                dirty2[f] = True
                                ann2_app(wa2[f])
                                break
                            ann2_app(_FWD)
                            wb = wba
                            wba = -1
                state[:] = (a2, r2, c2, byp2, dram_wb, ti, mi, misses)
            if phase == 0:
                # The scalar warmup boundary: counters reset, cache /
                # TLB / page state stays warm (EOU memo survives).
                for c, ((hierarchy, _, _, _), (_, state, books)) in \
                        enumerate(zip(cores, lanes)):
                    hierarchy.reset_stats()
                    for tally in books[0]:
                        tally[:] = [0] * len(tally)
                    state[3] = state[4] = state[7] = 0  # byp2, dram_wb, misses
                    marks[c] = (len(books[1]), len(books[2]),
                                len(books[3]), state[6])
                for t in (ins3, mvr3, mvw3, wbout3):
                    t[:] = [0] * nsub3
                cls3[:] = [0, 0, 0, 0]
                hist3[:] = [0, 0, 0, 0]
                byp3 = 0
        finished = [
            _finish_lane(books, state, capture, mark)
            for (_, state, books), capture, mark in zip(lanes, captures,
                                                        marks)
        ]
        for f in d3.values():
            hist3[hits3[f]] += 1

        # ----- phase 2: batched accounting over the annotation streams
        tally3 = _tally(sum(counts3 for counts3, _, _, _ in finished),
                        nsub3, ins3, byp3, cls3, mvr3, mvw3, wbout3, hist3)
        outcomes = [outcome for _, _, _, outcome in finished]
        l2_total = _summed([o.tally2 for o in outcomes])
        metadata_events = 0
        for (hierarchy, _, capture, _), (_, _, tlb_misses, _) in zip(
                cores, finished):
            runtime = hierarchy.runtime
            # Live runtime/TLB ledgers: one page-grain probe per access,
            # one manual miss bump per captured TLB-miss position (as in
            # the scalar replay); hits are the complement of the
            # measured-phase misses.
            runtime_stats = runtime.stats
            runtime_stats.tlb_miss_fetches = tlb_misses
            tlb_stats = runtime.tlb.stats
            tlb_stats.misses = tlb_misses
            tlb_stats.hits = (capture.n - capture.warmup) - tlb_misses
            metadata_events += (runtime_stats.tlb_miss_fetches
                                + runtime_stats.distribution_fetches)
        check_slip_vector_replay(
            demand_events=sum(o.demand_events for o in outcomes),
            metadata_events=metadata_events,
            fetch_events=sum(o.fetch_events for o in outcomes),
            wb_events=sum(o.wb_events for o in outcomes),
            l2_tally=l2_total, l3_tally=tally3,
            dram_writebacks=sum(o.dram_writes for o in outcomes),
        )

        for (hierarchy, _, _, _), (counts3, lat2, _, outcome) in zip(
                cores, finished):
            l2 = hierarchy.l2
            tally2 = outcome.tally2
            # Measured-phase latency: only demand events contribute
            # below L1, and every term is an integer count times an
            # integer latency; this core's L3 share comes from its own
            # stream.
            demand_misses3 = int(counts3[_MISS_D])
            total = (
                sum(c * t for c, t in zip(tally2.dh_sub, lat2))
                + tally2.demand_misses * l2.cfg.latency_cycles
                + sum(int(counts3[1 + s]) * t for s, t in enumerate(lat3))
                + demand_misses3 * (l3.cfg.latency_cycles
                                    + hierarchy.dram._latency)
            )
            _publish_slip_level(l2, hierarchy.l2_placement, tally2)
            counters = hierarchy.counters
            counters.total_latency_cycles += total
            counters.dram_demand_reads = demand_misses3
            counters.dram_metadata_reads = int(counts3[_MISS_M])
            counters.dram_writebacks = outcome.dram_writes
            dram_stats = hierarchy.dram.stats
            dram_stats.reads = outcome.l3_reads
            dram_stats.writes = outcome.dram_writes
        _publish_slip_level(l3, l3_placement, tally3)
        return outcomes, tally3
    finally:
        if gc_was_enabled:
            gc.enable()

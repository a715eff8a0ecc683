"""SLIP placement controller (Sections 3.1 and 4.3, Figures 6 and 7).

Implements the SLIP state machine on top of a :class:`CacheLevel`:

* on a fill, the line's page SLIP selects the insertion chunk (or
  bypasses the level entirely under the All-Bypass Policy);
* the displaced victim is moved to the *next* chunk of its own SLIP,
  which can cascade — each cascade step strictly advances the moved
  line's chunk index, so cascades always terminate;
* on a hit, the line's timestamp yields a reuse-distance sample for its
  page's distribution when the page is in the sampling state.

The controller is orthogonal to replacement: victim selection inside a
chunk is delegated to the level's replacement policy.

Like the baseline placement, :meth:`SlipPlacement.fill` has two
implementations. The fused fast path handles the dominant cases — ABP
bypass, fill into an invalid way, and fill whose victim leaves the
level immediately (its SLIP has no next chunk) — in one frame, reusing
the victim ``Line`` in place and resolving the page's ``(slip_id,
sampling)`` pair with a single page-table probe. It is only legal when
``level._fast_fill`` holds (stock LRU, no SimCheck wrappers observing
the placement primitives — REPRO_CHECK_INVARIANTS clears the flag at
install), and is accounting-equivalent to the general path by
construction; the golden tests pin that down byte-for-byte. Fills that
trigger an actual cascade movement are rarer and keep using the
primitive-by-primitive machinery.
"""

from __future__ import annotations

from typing import Optional

from ..mem.cache import INVALID_LINE, CacheLevel, EvictedLine, Line
from ..mem.stats import REUSE_KEYS
from ..policies.base import FillOutcome, PlacementPolicy
from .policy import SlipSpace
from .runtime import SlipRuntime
from .sampling import PageState

_INF = float("inf")

#: Shared outcome for fused fills with nothing to report upward (same
#: contract as the baseline's shared instance: consumers only read).
_INSERTED = FillOutcome(True)


class SlipPlacement(PlacementPolicy):
    """SLIP insertion and movement for one cache level."""

    performs_movement = True

    def __init__(self, space: SlipSpace, runtime: Optional[SlipRuntime],
                 movement_queue_pj: float = 0.3) -> None:
        super().__init__()
        self.space = space
        self.runtime = runtime
        self.movement_queue_pj = movement_queue_pj
        # SlipSpace hot tables, bound as instance attributes so the
        # per-fill lookups skip one attribute hop each.
        self._num_chunks_by_id = space.num_chunks_by_id
        self._class_by_id = space.class_by_id
        self._chunk0_orders_by_id = space.chunk0_orders_by_id
        # on_hit inlines the page-table probe, which needs the concrete
        # SlipRuntime surface (``pages`` dict + ``always_sample``).
        # Duck-typed runtimes (the shared-L3 router) take the generic
        # query path instead.
        self._paged_runtime = (
            runtime if isinstance(runtime, SlipRuntime) else None
        )

    def attach(self, level: CacheLevel) -> None:
        super().attach(level)
        if level.cfg.num_sublevels != self.space.num_sublevels:
            raise ValueError("SlipSpace does not match level sublevels")
        self._level_name = level.cfg.name
        self._default_id = self.space.default_id
        # Hit-path clamp: a reference that hit cannot have a stack
        # distance at or beyond the level's capacity (see on_hit).
        self._max_hit_distance = level.cfg.lines - 1
        # Structurally constant level internals, bound once for the
        # fused fill (mutable per-fill state — stats, rotor, access
        # counter, valid_count — is still read through ``level``).
        self._sets = level.sets
        self._indexes = level._index
        self._num_sets = level.num_sets
        self._sublevel_by_way = level.sublevel_by_way
        self._track_meta = level.track_metadata_energy
        self._replacement = level.replacement
        # Timestamp quantisation constants (set once in CacheLevel's
        # constructor), bound here so the per-fill and per-hit
        # timestamp updates skip two attribute hops each.
        self._granule = level._granule
        self._ts_mask = level._ts_mask
        # Fused-fill page probe: the page table dict, the always-sample
        # flag and this level's default SLIP id are all stable for the
        # runtime's lifetime, so bind them once and skip the
        # policy_and_sampling dispatch on every fill.
        runtime = self._paged_runtime
        if runtime is not None:
            self._pages = runtime.pages
            self._always_sample = runtime.always_sample
            self._level_default_id = runtime._default_ids[self._level_name]

    # ------------------------------------------------------------------
    def _slip_for(self, page: int, is_metadata: bool) -> int:
        if is_metadata or self.runtime is None or page < 0:
            return self._default_id
        return self.runtime.policy_for(self._level_name, page)

    # slip-audit: twin=slip-fill role=fast
    def fill(self, line_addr: int, page: int = -1, dirty: bool = False,
             is_metadata: bool = False) -> FillOutcome:
        level = self.level
        assert level is not None
        if not level._fast_fill:
            return self._fill_general(line_addr, page=page, dirty=dirty,
                                      is_metadata=is_metadata)

        # ----- fused (slip_id, sampling) resolution: one probe -----
        runtime = self.runtime
        if is_metadata or runtime is None or page < 0:
            slip_id, sampling = self._default_id, False
        elif self._paged_runtime is not None:
            # policy_and_sampling inlined over the prebound page table
            # (identical decision sequence, one dict probe, no call).
            entry = self._pages.get(page)
            if entry is None:
                slip_id, sampling = self._level_default_id, False
            elif entry.state is PageState.SAMPLING:
                slip_id, sampling = self._level_default_id, True
            else:
                slip_id = entry.policies[self._level_name]
                sampling = self._always_sample
        else:
            slip_id, sampling = runtime.policy_and_sampling(
                self._level_name, page
            )

        orders = self._chunk0_orders_by_id[slip_id]
        if not orders:
            # All-Bypass Policy: the line never enters this level.
            stats = level.stats
            stats.bypasses += 1
            stats.insertions_by_class[self._class_by_id[slip_id]] += 1
            if dirty:
                stats.dirty_bypass_forwards += 1
                return FillOutcome(False, [line_addr])
            return FillOutcome(False)

        # ----- fused victim scan (same order as choose_victim) -----
        set_idx = line_addr % self._num_sets
        lines = self._sets[set_idx]
        index = self._indexes[set_idx]
        level._alloc_rotor = rotor = (level._alloc_rotor + 1) % 64
        order = orders[rotor % len(orders)]
        victim_way = -1
        best_lru = _INF
        for way in order:
            line = lines[way]
            if not line.valid:
                victim_way = way
                victim = line
                break
            lru = line.lru
            if lru < best_lru:
                victim_way, best_lru = way, lru
        else:
            victim = lines[victim_way]

        stats = level.stats
        outcome: FillOutcome
        cascade_victim: Optional[EvictedLine] = None
        if victim.valid:
            if victim.chunk_idx + 1 \
                    >= self._num_chunks_by_id[victim.policy_id]:
                # Victim leaves the level for good (its SLIP has no
                # next chunk — true for every single-chunk policy, the
                # dominant case). Inlined record_departure; stock LRU
                # has no eviction feedback hook.
                hits = victim.hits
                stats.reuse_histogram[REUSE_KEYS[hits] if hits <= 2
                                      else ">2"] += 1
                del index[victim.tag]
                if victim.dirty:
                    stats.writebacks_out += 1
                    stats.wb_out_events[
                        self._sublevel_by_way[victim_way]] += 1
                    outcome = FillOutcome(True, [victim.tag])
                else:
                    outcome = _INSERTED
            else:
                # The victim moves to its next chunk: snapshot it and
                # run the cascade machinery after the install, exactly
                # like the general path.
                cascade_victim = EvictedLine(victim, victim_way)
                del index[victim.tag]
                outcome = FillOutcome(True)
        else:
            level.valid_count += 1
            outcome = _INSERTED
            if victim is INVALID_LINE:
                if lines is level._untouched_row:
                    # First fill of this set: give it its own row and
                    # probe index (see CacheLevel._own_set).
                    lines, index = level._own_set(set_idx)
                # First fill of this way: materialize a real Line in
                # place of the shared invalid sentinel.
                victim = lines[victim_way] = Line()

        # ----- installation (inlined place_fill over the reused Line;
        # every slot the general path's reset() clears AND some consumer
        # reads is re-set. The RRIP/SHiP/PEA bookkeeping slots (rrpv,
        # signature, outcome, demoted) are deliberately left alone:
        # the fast path requires stock LRU, under which nothing ever
        # reads or writes them, so they keep their constructor defaults
        # — same contract as skipping clean-eviction enumeration) -----
        line = victim
        line.valid = True
        line.tag = line_addr
        index[line_addr] = victim_way
        line.dirty = dirty
        line.policy_id = slip_id
        line.chunk_idx = 0
        line.page = page
        line.sampling = sampling
        line.is_metadata = is_metadata
        line.ts = (level.access_counter // self._granule) & self._ts_mask
        line.hits = 0
        replacement = self._replacement
        replacement._clock += 1
        line.lru = replacement._clock
        stats.insertions += 1
        stats.insert_events[self._sublevel_by_way[victim_way]] += 1
        if self._track_meta:
            stats.metadata_events += 1
        stats.insertions_by_class[self._class_by_id[slip_id]] += 1
        if cascade_victim is not None:
            self._cascade(set_idx, cascade_victim, outcome)
        return outcome

    # slip-audit: twin=slip-fill role=ref
    def _fill_general(self, line_addr: int, *, page: int = -1,
                      dirty: bool = False,
                      is_metadata: bool = False) -> FillOutcome:
        """Primitive-by-primitive fill; SimCheck observes each step."""
        level = self.level
        assert level is not None
        slip_id = self._slip_for(page, is_metadata)
        slip_class = self.space.classify(slip_id)

        if self.space.num_chunks(slip_id) == 0:
            # All-Bypass Policy: the line never enters this level.
            level.record_bypass(slip_class, dirty=dirty)
            outcome = FillOutcome(inserted=False)
            if dirty:
                outcome.add_writeback(line_addr)
            return outcome

        outcome = FillOutcome(inserted=True)
        set_idx = level.set_index(line_addr)
        candidates = self.space.chunk_ways(slip_id, 0)
        way = level.choose_victim(set_idx, candidates)
        victim = level.extract(set_idx, way)
        sampling = (
            self.runtime is not None
            and not is_metadata
            and self.runtime.is_sampling(page)
        )
        level.place_fill(
            set_idx, way, line_addr, dirty=dirty, page=page,
            policy_id=slip_id, chunk_idx=0, sampling=sampling,
            is_metadata=is_metadata, timestamp=level.timestamp_now(),
        )
        level.stats.insertions_by_class[slip_class] += 1
        if victim is not None:
            self._cascade(set_idx, victim, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _cascade(self, set_idx: int, victim: EvictedLine,
                 outcome: FillOutcome) -> None:
        """Move a displaced line per its own SLIP, cascading (step 7).

        Every iteration strictly advances the pending line's chunk index
        within its own SLIP, so the loop terminates: a line with M
        chunks can be re-victimized at most M-1 times before leaving the
        level. The guard is a backstop, not a policy.
        """
        level = self.level
        assert level is not None
        space = self.space
        num_chunks_by_id = self._num_chunks_by_id
        guard = level.cfg.ways * (space.num_sublevels + 1)
        pending: Optional[EvictedLine] = victim
        while pending is not None:
            guard -= 1
            next_chunk = pending.chunk_idx + 1
            if (
                guard <= 0
                or next_chunk >= num_chunks_by_id[pending.policy_id]
            ):
                self._evict_from_level(pending, outcome)
                return
            ways = space.chunk_ways_by_id[pending.policy_id][next_chunk]
            way = level.choose_victim(set_idx, ways)
            displaced = level.extract(set_idx, way)
            level.place_moved(
                set_idx, way, pending, new_chunk_idx=next_chunk,
                movement_queue_pj=self.movement_queue_pj,
            )
            pending = displaced

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int) -> None:
        """Sample the reuse distance for sampling pages; refresh TL.

        The page-table probe and the sampling-state test are inlined
        (one ``pages.get`` instead of ``is_sampling`` + ``record_reuse``
        probing separately). This fuses only runtime-side queries that
        SimCheck never wraps, so it needs no fast-path gate: checked
        and unchecked runs execute the identical sequence of state
        updates.
        """
        level = self.level
        assert level is not None
        line = level.sets[set_idx][way]
        page = line.page
        runtime = self._paged_runtime
        if runtime is not None:
            if page >= 0 and not line.is_metadata:
                entry = runtime.pages.get(page)
                if entry is not None and (
                    runtime.always_sample
                    or entry.state is PageState.SAMPLING
                ):
                    granule = self._granule
                    ts_mask = self._ts_mask
                    delta = (((level.access_counter // granule)
                              & ts_mask) - line.ts) & ts_mask
                    distance = delta * granule
                    # Symmetric to counting misses in the last bin
                    # (Section 4.1): a reference that HIT this level
                    # necessarily had a stack distance below the
                    # level's capacity, so a timestamp difference
                    # inflated past capacity (other pages' accesses
                    # aged the counter) is clamped into the largest hit
                    # bin. Without this, pages with genuine reuse can
                    # be measured as all-miss and wrongly bypassed.
                    if distance > self._max_hit_distance:
                        distance = self._max_hit_distance
                    entry.distributions[self._level_name].record(distance)
                    if entry.period_samples < 63:
                        entry.period_samples += 1
        elif (
            self.runtime is not None
            and page >= 0
            and not line.is_metadata
            and self.runtime.is_sampling(page)
        ):
            distance = level.reuse_distance(line.ts)
            if distance > self._max_hit_distance:
                distance = self._max_hit_distance
            self.runtime.record_reuse(self._level_name, page, distance)
        line.ts = (level.access_counter // self._granule) & self._ts_mask

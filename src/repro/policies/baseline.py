"""The regular cache hierarchy: insert anywhere, never move.

This is the paper's baseline. Victims are chosen across all ways by the
underlying replacement policy; access energy is the uniform (way-mean)
energy because, with way interleaving, a line lands in a random-energy
way and stays there.
"""

from __future__ import annotations

from .base import FillOutcome, PlacementPolicy
from ..mem.cache import INVALID_LINE, NO_CHUNK, Line
from ..mem.stats import REUSE_KEYS

_INF = float("inf")

#: Shared result for fills with nothing to report upward (no dirty
#: victim). Callers only read FillOutcome fields, never mutate them
#: (the mutators live on policy-owned instances), so one immutable
#: instance serves every such fill. Consequence: the fast path does
#: not enumerate clean evictions — no consumer reads them; the stats
#: side of a clean departure is still fully recorded.
_INSERTED = FillOutcome(True)


class BaselinePlacement(PlacementPolicy):
    """Ordinary insertion into any way; no intra-level movement.

    Every miss at every level funnels through :meth:`fill`, so it gets
    two implementations: a fused fast path that performs the victim
    scan, departure bookkeeping and installation in one frame (reusing
    the victim ``Line`` object in place), and the general path built
    from the level's placement primitives. The fast path is only legal
    when ``level._fast_fill`` holds — stock LRU replacement, and no
    SimCheck wrappers observing the individual primitives — and is
    accounting-equivalent to the general path by construction (the
    golden tests pin this down byte-for-byte).
    """

    performs_movement = False

    def attach(self, level) -> None:
        super().attach(level)
        ways = level.cfg.ways
        # The candidate set never narrows for the baseline; build each
        # rotated visit order once instead of a slice pair per fill.
        self._all_ways = tuple(range(ways))
        self._orders = tuple(
            tuple(range(r, ways)) + tuple(range(r))
            for r in range(ways)
        )
        self._ways = ways

    # slip-audit: twin=baseline-fill role=fast
    def fill(self, line_addr: int, page: int = -1, dirty: bool = False,
             is_metadata: bool = False) -> FillOutcome:
        level = self.level
        assert level is not None
        if not level._fast_fill:
            return self._fill_general(line_addr, page=page, dirty=dirty,
                                      is_metadata=is_metadata)

        # ----- fused victim scan (same order as choose_victim) -----
        set_idx = line_addr % level.num_sets
        lines = level.sets[set_idx]
        index = level._index[set_idx]
        level._alloc_rotor = rotor = (level._alloc_rotor + 1) % 64
        victim_way = -1
        best_lru = _INF
        for way in self._orders[rotor % self._ways]:
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

        # ----- departure of a valid victim (no EvictedLine snapshot:
        # the baseline only needs its hits/dirty/tag) -----
        stats = level.stats
        if victim.valid:
            # Inlined stats.record_reuse_count(victim.hits).
            hits = victim.hits
            stats.reuse_histogram[REUSE_KEYS[hits] if hits <= 2
                                  else ">2"] += 1
            del index[victim.tag]
            if victim.dirty:
                stats.writebacks_out += 1
                stats.wb_out_events[level.sublevel_by_way[victim_way]] += 1
                outcome = FillOutcome(True, [victim.tag])
            else:
                outcome = _INSERTED
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
        # signature, outcome, demoted) are deliberately left alone: the
        # fast path requires stock LRU, under which nothing ever reads
        # or writes them, so they keep their constructor defaults) -----
        line = victim
        line.valid = True
        line.tag = line_addr
        index[line_addr] = victim_way
        line.dirty = dirty
        line.policy_id = 0
        line.chunk_idx = NO_CHUNK
        line.page = page
        line.sampling = False
        line.is_metadata = is_metadata
        line.ts = (level.access_counter // level._granule) & level._ts_mask
        line.hits = 0
        replacement = level.replacement
        replacement._clock += 1
        line.lru = replacement._clock
        stats.insertions += 1
        stats.insert_events[level.sublevel_by_way[victim_way]] += 1
        if level.track_metadata_energy:
            stats.metadata_events += 1
        stats.insertions_by_class["default"] += 1
        return outcome

    # slip-audit: twin=baseline-fill role=ref
    def _fill_general(self, line_addr: int, *, page: int = -1,
                      dirty: bool = False,
                      is_metadata: bool = False) -> FillOutcome:
        """Primitive-by-primitive fill; SimCheck observes each step."""
        level = self.level
        outcome = FillOutcome(inserted=True)
        set_idx = line_addr % level.num_sets
        way = level.choose_victim(set_idx, self._all_ways)
        victim = level.extract(set_idx, way)
        if victim is not None:
            self._evict_from_level(victim, outcome)
        level.place_fill(
            set_idx, way, line_addr, dirty=dirty, page=page,
            is_metadata=is_metadata,
            timestamp=level.timestamp_now(),
        )
        level.stats.insertions_by_class["default"] += 1
        return outcome

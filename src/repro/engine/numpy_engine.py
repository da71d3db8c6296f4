"""NumPy batch engine: simulate every lane of a campaign simultaneously.

This is the production engine.  A campaign becomes **one** array program
instead of one Python loop over the trace per lane: at every step all lanes
advance together, with cache state carried as per-lane arrays.  It models
the paper's platform and nothing else: write-through, no-write-allocate
L1s, an optional write-back, write-allocate L2, and LRU or random
replacement on every level.

Each simulator executes one :class:`~repro.engine.plan.TracePlan`, compiled
by :func:`~repro.engine.plan.compile_plan` on its first batch: guaranteed
hits are elided from the program entirely, hit detection is one read of a
``(lines, lanes)`` presence map (line -> way, ``-1`` = absent) instead of a
tag gather-and-compare, and invalid-way selection is a per-set occupancy
counter (ways fill in order and are never invalidated).

Every batch builds the placement map of each randomized cache with one
vectorized call (:meth:`repro.core.placement.PlacementPolicy.set_index_matrix`),
only over the lines that cache can actually index; deterministic policies
share one seed-invariant map.  ``run_batch(seeds, lines=...)`` instead gives
each lane its own table of line addresses (the layout lanes of a
deterministic campaign): every slot then maps each lane's table under that
lane's placement seed.  Seed lanes and layout lanes run the same plan.  Seed
derivation (hierarchy -> cache -> policy seeds) runs the same SplitMix64
chain as :func:`repro.cache.hierarchy.derive_cache_seeds` /
:func:`repro.cache.cache.derive_policy_seeds`, vectorized, so the engine is
**bit-exact** with the reference engine for every seed: same cycles, same
miss counters, same victim streams.  Elision never removes a victim draw
(only guaranteed hits are dropped, and hits never draw), so the per-lane
SplitMix64 victim streams are consumed in exactly the reference model's
order.  The cross-engine equivalence tests assert all of this.

The batch state is kept lean, since it grows with the lane count: each L1
holds rows only for its own lines (fetches or data) and the L2 for every
line, one cell table serves both way and set addressing, and the deferred
miss counters fold into per-lane totals every :data:`FOLD_STEPS` steps.  A
1,024-lane batch of a 40 KB trace peaks at under a third of the memory it
took with a table per set map, set cell and way cell on every level and
counters kept to the last step (see :class:`_PlanCache`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cache.cache import CacheConfig
from ..cache.fastsim import FETCH_KIND, CompiledTrace, FastRunResult
from ..cache.hierarchy import HierarchyConfig
from ..core.bits import mask
from ..core.placement import make_placement, placement_is_randomized
from ..core.prng import splitmix64_next_array
from .base import DEFAULT_MAX_LANES, Engine
from .plan import TracePlan, compile_plan

try:  # pragma: no cover - exercised implicitly on every plan batch
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # pragma: no cover - older numpy
    _count_nonzero = np.count_nonzero

__all__ = ["NumpyEngine", "DEFAULT_MAX_LANES", "derive_seed_arrays"]

#: Plan steps between two folds of the deferred per-lane counters
#: (:class:`_PlanCounters`).
FOLD_STEPS = 256

_U64_SPACE = 1 << 64


def derive_seed_arrays(seeds: Sequence[int]):
    """Vectorized hierarchy -> cache -> policy seed derivation chain.

    Returns one ``(placement_seeds, replacement_seeds)`` pair of uint64
    arrays per cache slot (IL1, DL1, L2), bit-identical to the scalar chain
    in :func:`repro.cache.hierarchy.derive_cache_seeds` /
    :func:`repro.cache.cache.derive_policy_seeds`.
    """
    states = np.array([seed & mask(64) for seed in seeds], dtype=np.uint64)
    cache_seeds = [splitmix64_next_array(states) for _ in range(3)]
    per_cache = []
    for cache_state in cache_seeds:
        policy_state = cache_state.copy()
        placement_seeds = splitmix64_next_array(policy_state)
        # The drawn replacement seed is the initial SplitMix64 state of
        # the per-lane victim stream (SplitMix64(seed).state == seed).
        replacement_seeds = splitmix64_next_array(policy_state)
        per_cache.append((placement_seeds, replacement_seeds))
    return per_cache


class _PlanCache:
    """One cache level in plan-execution form: presence map + flat cells.

    The tables have one row per line the level can index (an L1 sees only
    its own fetches or data lines, the L2 every line) and one column per
    lane.  ``way_of[row, lane]`` is the way holding line ``row`` in
    ``lane`` (``-1`` = absent), replacing a tag gather-and-compare with one
    row read.  All per-(lane, set, way) state lives in flat arrays
    addressed by precomputed cell indices: ``way_cell[row, lane]`` is the
    first way cell of the line's (lane, set), so the hot path gathers a way
    cell with one integer add instead of a 3-D multi-index, and the (lane,
    set) cell is ``way_cell // ways`` (a shift at power-of-two ways).  Ways
    fill in order and are never invalidated, so a per-set occupancy counter
    identifies the first invalid way without scanning, and ``resident[row]``
    counts the lanes currently holding the line — the executor's
    all-lanes-hit / all-lanes-miss test is one Python integer comparison, no
    array op at all.

    State layout, by shape:

    * per (row, lane): ``way_cell`` (``int64``), ``way_of`` (``int16``)
      and, on the write-back L2 only, ``dirty_line`` (``bool``);
    * per (lane, set, way) cell: ``victims``, the row installed in each
      way (``int16`` below 2**15 rows, else ``int32``), and LRU ``stamp``
      (``int64``);
    * per (lane, set): ``occupancy`` (``int16``);
    * per row: ``resident`` (``int64``).

    The set map itself is not kept: it becomes ``way_cell`` in place.  The
    cell table stays ``int64`` because numpy casts any other index dtype
    on every gather and scatter: ``int32`` tables made LRU batches of
    ``a2time`` 1.6x slower.
    """

    @staticmethod
    def _pooled(pool, name, shape, dtype, fill=None):
        """A batch-state array, recycled from ``pool`` when shapes match.

        The plan state (way map, occupancy, dirty bits, victim table) is
        reallocated per batch; at campaign lane counts that is several MB of
        mmap/page-fault/munmap churn per call.  Reusing the previous batch's
        buffers turns that into plain memsets.  ``fill=None`` skips even the
        memset for arrays whose cells are never read before being written.
        """
        arr = pool.get(name) if pool is not None else None
        if arr is None or arr.shape != shape or arr.dtype != np.dtype(dtype):
            arr = np.empty(shape, dtype=dtype)
            if pool is not None:
                pool[name] = arr
        if fill is not None:
            arr.fill(fill)
        return arr

    def __init__(
        self,
        config: CacheConfig,
        n_lanes: int,
        line_sets: np.ndarray,
        replacement_states: np.ndarray,
        write_back: bool,
        buffers: Optional[dict] = None,
    ) -> None:
        """``line_sets`` is the ``int64`` set map: ``(rows,)`` when every
        lane shares it, or ``(rows, lanes)`` built for this batch alone and
        turned into ``way_cell`` in place.  ``write_back`` is true for the
        L2 alone: the write policy follows the level."""
        self.n_lanes = n_lanes
        self.ways = config.ways
        self.lru = config.replacement == "lru"
        n_rows = line_sets.shape[0]
        lane_offsets = np.arange(n_lanes, dtype=np.int64) * config.num_sets
        if line_sets.ndim == 2:
            line_sets += lane_offsets
            way_cell = line_sets
        else:
            way_cell = line_sets[:, None] + lane_offsets
        way_cell *= config.ways
        self.way_cell = way_cell
        power_of_two = not config.ways & (config.ways - 1)
        self._set_shift = config.ways.bit_length() - 1 if power_of_two else None
        cells = n_lanes * config.num_sets * config.ways
        pooled = self._pooled
        self.way_of = pooled(buffers, "way_of", (n_rows, n_lanes), np.int16, -1)
        self.occupancy = pooled(
            buffers, "occupancy", (n_lanes * config.num_sets,), np.int16, 0
        )
        # Dirtiness is a property of the cached *line*, not its way slot:
        # tracked per (row, lane), it is read only while a line is resident
        # (victim collection), so stale entries of evicted lines are always
        # overwritten by the next install before any read.  Store hits under
        # random replacement then dirty a whole row without gathering way
        # cells at all.  The write-through L1s never read it.
        self.dirty_line = (
            pooled(buffers, "dirty_line", (n_rows, n_lanes), bool, False)
            if write_back
            else None
        )
        # Never read before the cell is installed (reads happen only for
        # victim ways of full sets), so no fill is needed.
        victim_dtype = np.int16 if n_rows < 1 << 15 else np.int32
        self.victims = pooled(buffers, "victims", (cells,), victim_dtype)
        self.resident = pooled(buffers, "resident", (n_rows,), np.int64, 0)
        self._all_idx = np.arange(n_lanes)
        if self.lru:
            self.stamp = pooled(buffers, "stamp", (cells,), np.int64, 0)
            self.stamp_sets = self.stamp.reshape(-1, config.ways)
            self._clock = 0
        else:
            self.rng_state = replacement_states

    def set_cells(self, cells):
        """The (lane, set) cells of way cells ``cells``."""
        if self._set_shift is None:
            return cells // self.ways
        return cells >> self._set_shift

    def touch_cells(self, cells) -> None:
        """Record a hit/fill of the way cells ``cells``: LRU stamps them.
        Random replacement never calls it (its hits are stateless)."""
        self._clock += 1
        self.stamp[cells] = self._clock

    def _advance_rng(self, idx: np.ndarray) -> np.ndarray:
        states = self.rng_state[idx]
        out = splitmix64_next_array(states)
        self.rng_state[idx] = states
        return out

    def _draw_below(self, idx: np.ndarray, values=None) -> np.ndarray:
        """Vectorized ``SplitMix64.next_below(ways)`` for the given lanes."""
        bound = self.ways
        if values is None:
            values = self._advance_rng(idx)
        if not bound & (bound - 1):
            # Masked values fit in an int64, so reinterpreting the bits is
            # free and exact — no astype copy.
            try:
                way_mask = self._way_mask
            except AttributeError:
                way_mask = self._way_mask = np.uint64(bound - 1)
            return (values & way_mask).view(np.int64)
        if _U64_SPACE % bound == 0:
            return (values % bound).astype(np.int64)
        limit = np.uint64(_U64_SPACE - _U64_SPACE % bound)
        accepted = values < limit
        if accepted.all():
            # Rejection is rare (non-power-of-two ``ways`` only, and the
            # reject band is a vanishing fraction of the 64-bit space).
            return (values % bound).astype(np.int64)
        result = np.empty(idx.size, dtype=np.int64)
        pending = np.arange(idx.size)
        while True:
            result[pending[accepted]] = (values[accepted] % bound).astype(np.int64)
            pending = pending[~accepted]
            if not pending.size:
                return result
            values = self._advance_rng(idx[pending])
            accepted = values < limit

    def _draw_below_all(self) -> np.ndarray:
        """``_draw_below`` over every lane: the state advances in place, no
        gather/scatter round-trip."""
        return self._draw_below(self._all_idx, splitmix64_next_array(self.rng_state))

    def _policy_victims(self, occ_cells, idx, all_lanes=False) -> np.ndarray:
        """Replacement victims for full sets (one per entry of ``occ_cells``)."""
        if self.lru:
            return self.stamp_sets[occ_cells].argmin(axis=1)
        if all_lanes:
            return self._draw_below_all()
        return self._draw_below(idx)

    def _evict_resident(self, evicted) -> None:
        resident = self.resident
        if evicted.size > 16:
            resident -= np.bincount(evicted, minlength=resident.size)
        else:
            for uid in evicted.tolist():
                resident[uid] -= 1

    def allocate(self, idx, base_cells, uid, make_dirty=False, collect=False,
                 all_lanes=False):
        """Victim choice + eviction + install of row ``uid`` for the missing
        lanes ``idx``.

        ``base_cells`` are the first way cells of the target line's set in
        those lanes (its ``way_cell`` entries).  With ``collect`` the lanes
        whose evicted victim was dirty are returned (else ``None``): L2
        demand fills charge them, L2 write allocations drop them.
        ``all_lanes`` asserts ``idx`` covers every lane in order (the
        dominant cold-miss case), turning scatters into whole-row writes.
        """
        ways = self.ways
        occupancy = self.occupancy
        victims = self.victims
        way_of = self.way_of
        occ_cells = self.set_cells(base_cells)
        occ = occupancy[occ_cells]
        full = occ >= ways
        n_full = _count_nonzero(full)
        dirty_lanes = None
        if not n_full:
            # Pure fill — no target set is full (the dominant case while a
            # cache warms up, and nearly every L2 call: few hundred distinct
            # lines over a thousand sets rarely fill one): install into the
            # next free way, with no eviction.
            victim = occ
            occupancy[occ_cells] = occ + 1
            cells = base_cells + victim
        else:
            if n_full == full.size:
                # Steady state: every target set is full, occupancy is
                # pinned at ``ways`` and every fill evicts.
                victim = self._policy_victims(occ_cells, idx, all_lanes=all_lanes)
                full_idx = idx
                cells = base_cells + victim
                evicted = victims[cells]
            else:
                victim = occ.astype(np.int64)
                full_idx = idx[full]
                victim[full] = self._policy_victims(occ_cells[full], full_idx)
                occupancy[occ_cells] = np.minimum(occ + 1, ways)
                cells = base_cells + victim
                evicted = victims[cells[full]]
            way_of[evicted, full_idx] = -1
            self._evict_resident(evicted)
            if collect:
                needs = self.dirty_line[evicted, full_idx]
                if needs.any():
                    dirty_lanes = full_idx[needs]
        victims[cells] = uid
        if all_lanes:
            way_of[uid] = victim
            if self.dirty_line is not None:
                self.dirty_line[uid] = make_dirty
        else:
            way_of[uid, idx] = victim
            if self.dirty_line is not None:
                self.dirty_line[uid, idx] = make_dirty
        self.resident[uid] += idx.size
        if self.lru:
            self.touch_cells(cells)
        return dirty_lanes


class _PlanCounters:
    """Deferred per-lane event counters for one plan execution.

    The plan loop fires thousands of tiny ``array[idx] += 1`` updates whose
    results are only read after the last step.  Instead of paying a
    fancy-index round-trip per event, an event is appended to its counter
    (a lane-index array for a partial-lane event, a plain int for a
    whole-batch event), and :meth:`fold` sums each counter's arrays into
    its per-lane totals with one ``bincount``.  The executor folds every
    :data:`FOLD_STEPS` steps, so the held arrays are one block's events:
    kept to the last step, a 1,000-lane 40 KB batch held 17,920 of them
    (66 MB), and as much again for their concatenation.
    """

    #: The counters: the rows of ``totals`` and the lists of :meth:`pending`.
    NAMES = ("il1_miss", "dl1_miss", "demand", "write", "l2_miss", "mem")

    __slots__ = (
        "l1_miss", "l1_miss_all", "demand", "demand_all", "write", "write_all",
        "l2_miss", "l2_miss_all", "mem", "mem_all", "totals",
    )

    def __init__(self, n: int) -> None:
        self.l1_miss = ([], [])  # per L1 slot (0 = IL1, 1 = DL1)
        self.l1_miss_all = [0, 0]
        self.demand = []        # L2 demand lookups (charge l2_hit latency)
        self.demand_all = 0
        self.write = []         # latency-free L2 write lookups
        self.write_all = 0
        self.l2_miss = []
        self.l2_miss_all = 0
        self.mem = []           # memory accesses that charge memory latency
        self.mem_all = 0
        self.totals = np.zeros((len(self.NAMES), n), dtype=np.int64)

    def pending(self) -> tuple:
        """Each counter's lane-index arrays not folded yet, in :attr:`NAMES` order."""
        return (*self.l1_miss, self.demand, self.write, self.l2_miss, self.mem)

    def fold(self) -> None:
        """Add the pending lane-index arrays to the per-lane totals."""
        n = self.totals.shape[1]
        for total, parts in zip(self.totals, self.pending()):
            if parts:
                total += np.bincount(np.concatenate(parts), minlength=n)
                parts.clear()

    def finish(self) -> np.ndarray:
        """The per-lane totals, one row per :attr:`NAMES` entry, with every
        event folded in."""
        self.fold()
        wholes = (
            *self.l1_miss_all, self.demand_all, self.write_all,
            self.l2_miss_all, self.mem_all,
        )
        for total, whole in zip(self.totals, wholes):
            total += whole
        return self.totals


class _VectorSimulator:
    """Simulates all lanes of a batch through one compiled trace plan together."""

    def __init__(self, config: HierarchyConfig, compiled: CompiledTrace) -> None:
        self.config = config
        self.compiled = compiled
        self._lines = compiled.unique_lines.astype(np.uint64)
        fetches = compiled.kinds == FETCH_KIND
        self._il1_accesses = int(np.count_nonzero(fetches))
        self._dl1_accesses = len(compiled) - self._il1_accesses
        # Lines (unique-line ids) each cache's tables hold a row for: fetches
        # only ever reach the IL1 and data accesses the DL1, so each L1's
        # placement map and state cover its own lines only (fig5's IL1
        # indexes 3 of 643 lines).  The L2 sees any line (fetch and data
        # demands, store-throughs) and keeps the full table (``None``).
        self._slot_rows = (
            np.unique(compiled.line_ids[fetches]),
            np.unique(compiled.line_ids[~fetches]),
            None,
        )
        #: Per L1: unique-line id -> row of that L1's tables, as a list the
        #: plan loop indexes with Python ints.
        self._row_of = []
        for rows in self._slot_rows[:2]:
            row_of = np.full(len(self._lines), -1, dtype=np.int64)
            row_of[rows] = np.arange(rows.size)
            self._row_of.append(row_of.tolist())
        # Seed-invariant per-cache tables: placement policy objects (reseeded
        # per lane for randomized policies) and the shared map of
        # deterministic policies.
        self._slots = []
        for slot, cache_config in enumerate((config.il1, config.dl1, config.l2)):
            if cache_config is None:
                self._slots.append(None)
                continue
            policy = make_placement(cache_config.placement, cache_config.geometry, seed=0)
            randomized = placement_is_randomized(cache_config.placement)
            static_sets = (
                None if randomized else policy.set_index_array(self._slot_lines(slot))
            )
            self._slots.append((cache_config, policy, randomized, static_sets))
        #: One recycled plan-state buffer set per cache slot; see
        #: :meth:`_PlanCache._pooled`.
        self._buffer_pool: dict = {}
        self._plan: Optional[TracePlan] = None

    @property
    def plan(self) -> TracePlan:
        """The :class:`TracePlan` every lane runs, compiled on first use."""
        if self._plan is None:
            self._plan = compile_plan(self.config, self.compiled)
        return self._plan

    # ----------------------------------------------------------------- public

    def run(self, seed: int) -> FastRunResult:
        return self.run_batch([seed])[0]

    def run_batch(
        self, seeds: Sequence[int], lines: Optional[np.ndarray] = None
    ) -> List[FastRunResult]:
        seeds = list(seeds)
        if lines is not None:
            lines = np.asarray(lines, dtype=np.uint64)
            if lines.shape != (len(seeds), len(self._lines)):
                raise ValueError(
                    f"lines must hold one table of {len(self._lines)} line "
                    f"addresses per seed ({len(seeds)}); got shape {lines.shape}"
                )
        # Equal-width chunks of at most DEFAULT_MAX_LANES lanes (the shard
        # planner's rule for one worker), so every chunk reuses one buffer set.
        chunks = max(1, -(-len(seeds) // DEFAULT_MAX_LANES))
        width = max(1, -(-len(seeds) // chunks))
        results: List[FastRunResult] = []
        for start in range(0, len(seeds), width):
            stop = start + width
            results.extend(
                self._run_lanes_plan(
                    seeds[start:stop], None if lines is None else lines[start:stop]
                )
            )
        return results

    # ------------------------------------------------------------------ setup

    def _slot_lines(self, slot: int) -> np.ndarray:
        """Addresses of the lines cache ``slot`` holds rows for."""
        rows = self._slot_rows[slot]
        return self._lines if rows is None else self._lines[rows]

    @staticmethod
    def _lane_sets(policy, randomized, tables, placement_seeds) -> np.ndarray:
        """``(lines, lanes)`` set map of each lane's own line table."""
        n_lanes, n_lines = tables.shape
        line_sets = np.empty((n_lines, n_lanes), dtype=np.int64)
        if randomized:
            # One map evaluation per distinct placement seed, over the tables
            # of every lane drawing it.
            seeds = np.unique(placement_seeds)
            groups = [(int(seed), np.nonzero(placement_seeds == seed)[0]) for seed in seeds]
        else:
            groups = [(None, np.arange(n_lanes))]
        for seed, lanes in groups:
            if seed is not None:
                policy.reseed(seed)
            sets = policy.set_index_array(tables[lanes].ravel())
            line_sets[:, lanes] = sets.reshape(lanes.size, n_lines).T
        return line_sets

    def _build_cache(
        self, slot, n_lanes, placement_seeds, replacement_seeds, tables=None
    ) -> _PlanCache:
        cache_config, policy, randomized, static_sets = self._slots[slot]
        if tables is not None:
            rows = self._slot_rows[slot]
            line_sets = self._lane_sets(
                policy, randomized, tables if rows is None else tables[:, rows],
                placement_seeds,
            )
        elif randomized:
            line_sets = policy.set_index_matrix(
                self._slot_lines(slot), [int(seed) for seed in placement_seeds]
            )
        else:
            line_sets = static_sets
        return _PlanCache(
            cache_config, n_lanes, line_sets, replacement_seeds,
            write_back=slot == 2, buffers=self._buffer_pool.setdefault(slot, {}),
        )

    def _build_hierarchy(self, seeds: Sequence[int], tables=None):
        n = len(seeds)
        return tuple(
            None if self._slots[slot] is None
            else self._build_cache(slot, n, *seed_arrays, tables=tables)
            for slot, seed_arrays in enumerate(derive_seed_arrays(seeds))
        )

    def _package_results(
        self, n, extra_cycles, memory_accesses, il1_misses, dl1_misses,
        l2_accesses, l2_misses,
    ) -> List[FastRunResult]:
        base_cycles = len(self.compiled) * self.config.timings.l1_hit
        # ``tolist`` converts whole arrays to Python ints in one C call,
        # instead of one ``int()`` round-trip per field per lane.
        cycles = (base_cycles + extra_cycles).tolist()
        memory = memory_accesses.tolist()
        il1_misses = il1_misses.tolist()
        dl1_misses = dl1_misses.tolist()
        l2_accesses = l2_accesses.tolist()
        l2_misses = l2_misses.tolist()
        return [
            FastRunResult(
                cycles=cycles[i],
                memory_accesses=memory[i],
                il1_accesses=self._il1_accesses,
                il1_misses=il1_misses[i],
                dl1_accesses=self._dl1_accesses,
                dl1_misses=dl1_misses[i],
                l2_accesses=l2_accesses[i],
                l2_misses=l2_misses[i],
            )
            for i in range(n)
        ]

    # ------------------------------------------------------- plan execution

    def _run_lanes_plan(self, seeds: Sequence[int], tables=None) -> List[FastRunResult]:
        if not seeds:
            return []
        plan = self.plan
        n = len(seeds)
        il1, dl1, l2 = self._build_hierarchy(seeds, tables)

        timings = self.config.timings
        l2_hit_latency = timings.l2_hit
        memory_latency = timings.memory
        writeback_latency = timings.writeback

        extra_cycles = np.zeros(n, dtype=np.int64)
        memory_accesses = np.full(
            n, plan.elided_store_memory_accesses, dtype=np.int64
        )
        lanes = np.arange(n)
        l1s = (il1, dl1)
        rows_of = self._row_of
        acc = _PlanCounters(n)

        # The L1s are write-through with no write-allocate: a store hit
        # writes through to the L2 (or memory), a store miss goes to the
        # next level without installing the line.
        for index, (slot, uid, is_store, sure_hit) in enumerate(plan.steps):
            if not index % FOLD_STEPS:
                acc.fold()
            l1 = l1s[slot]
            # The L1 addresses its tables by row; the L2 by unique-line id.
            row = rows_of[slot][uid]
            if sure_hit or l1.resident[row] == n:
                # Every lane hits: touch / store traffic only.
                if l1.lru:
                    l1.touch_cells(l1.way_cell[row] + l1.way_of[row])
                if is_store:
                    if l2 is not None:
                        self._plan_l2_write(l2, lanes, uid, acc, all_lanes=True)
                    else:
                        memory_accesses += 1
                continue

            ways_u = l1.way_of[row]
            base_row = l1.way_cell[row]
            all_miss = not l1.resident[row]
            if all_miss:
                hit_idx = None
                miss_idx = lanes
            elif l1.lru or is_store:
                hit = ways_u >= 0
                hit_idx = np.nonzero(hit)[0]
                miss_idx = np.nonzero(~hit)[0]
            else:
                hit_idx = None
                miss_idx = np.nonzero(ways_u < 0)[0]

            if hit_idx is not None and hit_idx.size:
                if l1.lru:
                    l1.touch_cells(base_row[hit_idx] + ways_u[hit_idx])
                if is_store:
                    if l2 is not None:
                        self._plan_l2_write(l2, hit_idx, uid, acc)
                    else:
                        memory_accesses[hit_idx] += 1

            if all_miss:
                acc.l1_miss_all[slot] += 1
            else:
                acc.l1_miss[slot].append(miss_idx)
            if not is_store:
                l1.allocate(
                    miss_idx, base_row if all_miss else base_row[miss_idx], row,
                    all_lanes=all_miss,
                )

            # The demand request goes to the next level.
            if l2 is None:
                if all_miss:
                    extra_cycles += memory_latency
                    memory_accesses += 1
                else:
                    extra_cycles[miss_idx] += memory_latency
                    memory_accesses[miss_idx] += 1
                continue
            if all_miss:
                acc.demand_all += 1
            else:
                acc.demand.append(miss_idx)
            self._plan_l2_demand(
                l2, miss_idx, uid, is_store, extra_cycles, memory_accesses,
                writeback_latency, acc, all_lanes=all_miss,
            )

        il1_miss, dl1_miss, demand, write, l2_miss, mem = acc.finish()
        extra_cycles += demand * l2_hit_latency + mem * memory_latency
        memory_accesses += mem
        return self._package_results(
            n, extra_cycles, memory_accesses, il1_miss, dl1_miss, demand + write, l2_miss
        )

    def _plan_l2_write(self, l2, idx, uid, acc, all_lanes=False) -> None:
        """Latency-free store-through of ``uid`` into the write-back L2.

        Hits are marked dirty; misses allocate (dirty) without charging
        latency or memory traffic, and the dirty victims of a write
        allocation are dropped.  Counter traffic goes to ``acc``.
        """
        if all_lanes:
            acc.write_all += 1
        else:
            acc.write.append(idx)
        if l2.resident[uid] == l2.n_lanes:
            if all_lanes:
                if l2.lru:
                    l2.touch_cells(l2.way_cell[uid] + l2.way_of[uid])
                l2.dirty_line[uid] = True
            else:
                if l2.lru:
                    l2.touch_cells(l2.way_cell[uid][idx] + l2.way_of[uid][idx])
                l2.dirty_line[uid, idx] = True
            return
        base = l2.way_cell[uid][idx]
        ways = l2.way_of[uid][idx]
        hit = ways >= 0
        hit_pos = np.nonzero(hit)[0]
        if hit_pos.size:
            if l2.lru:
                l2.touch_cells(base[hit_pos] + ways[hit_pos])
            l2.dirty_line[uid, idx[hit_pos]] = True
        miss = np.nonzero(~hit)[0]
        if not miss.size:
            return
        miss_idx = idx[miss]
        acc.l2_miss.append(miss_idx)
        l2.allocate(miss_idx, base[miss], uid, make_dirty=True)

    def _plan_l2_demand(
        self, l2, idx, uid, is_write, extra_cycles, memory_accesses,
        writeback_latency, acc, all_lanes=False,
    ) -> None:
        """Demand fill of ``uid`` in the write-back L2 for the given lanes;
        an L1 store miss (``is_write``) write-allocates the line dirty.

        The caller records the lookup itself (access count + L2 hit latency)
        in ``acc``; this method adds the miss-side events.
        """
        resident = int(l2.resident[uid])
        if resident == l2.n_lanes:
            if all_lanes:
                if l2.lru:
                    l2.touch_cells(l2.way_cell[uid] + l2.way_of[uid])
                if is_write:
                    l2.dirty_line[uid] = True
            else:
                if l2.lru:
                    l2.touch_cells(l2.way_cell[uid][idx] + l2.way_of[uid][idx])
                if is_write:
                    l2.dirty_line[uid, idx] = True
            return
        if resident:
            base = l2.way_cell[uid][idx] if not all_lanes else l2.way_cell[uid]
            ways = l2.way_of[uid][idx] if not all_lanes else l2.way_of[uid]
            hit = ways >= 0
            miss = np.nonzero(~hit)[0]
            if l2.lru or is_write:
                hit_pos = np.nonzero(hit)[0]
                if hit_pos.size:
                    if l2.lru:
                        l2.touch_cells(base[hit_pos] + ways[hit_pos])
                    if is_write:
                        hit_lanes = idx[hit_pos] if not all_lanes else hit_pos
                        l2.dirty_line[uid, hit_lanes] = True
            if not miss.size:
                return
            miss_idx = idx[miss]
            base_miss = base[miss]
            miss_all = False
        else:
            miss_idx = idx
            base_miss = l2.way_cell[uid][idx] if not all_lanes else l2.way_cell[uid]
            miss_all = all_lanes
        if miss_all:
            acc.l2_miss_all += 1
        else:
            acc.l2_miss.append(miss_idx)
        dirty_lanes = l2.allocate(
            miss_idx, base_miss, uid, make_dirty=is_write, collect=True,
            all_lanes=miss_all,
        )
        if dirty_lanes is not None:
            extra_cycles[dirty_lanes] += writeback_latency
            memory_accesses[dirty_lanes] += 1
        if miss_all:
            acc.mem_all += 1
        else:
            acc.mem.append(miss_idx)


class NumpyEngine(Engine):
    """Vectorized batch engine: one compiled-plan array program per
    campaign chunk of at most ``DEFAULT_MAX_LANES`` lanes."""

    name = "numpy"
    supports_batch = True
    bit_exact = True

    def simulator(
        self, config: HierarchyConfig, compiled: CompiledTrace
    ) -> _VectorSimulator:
        return _VectorSimulator(config, compiled)

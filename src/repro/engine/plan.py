"""Trace compilation: aggregate a ``CompiledTrace`` before simulating it.

The batch engines used to interpret the raw ``(kinds, line_ids)`` stream one
access at a time, paying the full per-access cost even for accesses whose
outcome is the same in *every* lane.  This module preprocesses the stream
once per hierarchy into a :class:`TracePlan` — the aggregation-before-
computation move: compact summaries are computed once, and the expensive
per-lane work runs only where outcomes can actually differ.  One plan
serves every lane of a batch: seed lanes that share the compiled line table
and layout lanes that bring their own.

**Guaranteed-hit elision (same-line runs).**
An access is a *guaranteed hit* when the line is provably resident in
every lane, under any placement map and any replacement decision, so the
access can be dropped from the simulated program entirely.  The rule is
the singleton rule: after any allocating access to line ``u``, ``u`` is
resident.  A potential miss on ``u`` itself evicts at most one (unknown)
line, so the only line whose residence survives the access is ``u``.
Hence the next access **to the same L1** is a guaranteed hit iff it
touches the same line.  The rule reads no set map, so it holds whatever
table of line addresses a lane brings and whatever placement maps it.

The L1s are write-through with no write-allocate (the write policy follows
the level), so a store never allocates or evicts and never *establishes* a
residence guarantee; fetches and loads do.  Under LRU, whose hits reorder
the set, a store hitting a *different* line than the guaranteed one still
touches that line's recency, so the guaranteed line may stop being
most-recently-used, and the guarantee (which licenses skipping the touch)
is dropped for any store to another line.  Random replacement has
stateless hits, so the guarantee survives those stores.  Elided accesses
are free: base latency already charges one L1 hit per trace entry,
repeated touches of the most-recently-used way preserve the relative LRU
stamp order, and an elided store hit with no L2 contributes one memory
access — a per-trace constant.  The one case that cannot be elided is a
store hit with an L2 behind it: each one writes into the L2 and advances
its state, so it stays a step (flagged ``sure_hit`` so the executor skips
the lookup).

**Per-set occupancy structure.**
Filled ways are never invalidated, so each set fills ways ``0..k-1`` in
order; executors track a per-set occupancy counter instead of scanning tag
arrays for an invalid way, and a presence map (line -> way, or -1) replaces
tag-compare hit detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..cache.fastsim import FETCH_KIND, STORE_KIND, CompiledTrace
from ..cache.hierarchy import HierarchyConfig
from ..cache.replacement import replacement_touches_on_hit

__all__ = [
    "TracePlan",
    "compile_plan",
]


#: One executable step: ``(slot, uid, is_store, sure_hit)``.  ``slot``
#: selects the L1 (0 = IL1, 1 = DL1), ``uid`` indexes the unique line table
#: and ``sure_hit`` marks steps proven to hit in every lane (kept only
#: because they advance L2 state).
Step = Tuple[int, int, bool, bool]


@dataclass
class TracePlan:
    """A compiled trace: the step program plus its elision counts."""

    steps: List[Step]
    n_accesses: int
    #: Accesses elided per L1 slot ("il1" / "dl1").
    elided: Dict[str, int]
    #: Memory accesses contributed by elided store hits (no-L2 hierarchies
    #: only) — a per-lane constant.
    elided_store_memory_accesses: int

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def elided_fraction(self) -> float:
        if not self.n_accesses:
            return 0.0
        return 1.0 - self.n_steps / self.n_accesses

    def describe(self) -> Dict[str, object]:
        """Structured summary (used by docs, reports and tests)."""
        return {
            "n_accesses": self.n_accesses,
            "n_steps": self.n_steps,
            "elided": dict(self.elided),
            "elided_fraction": self.elided_fraction,
        }


def _sure_hits(uids: np.ndarray, stores: np.ndarray, touches: bool) -> np.ndarray:
    """Which accesses of one L1's stream hit the guaranteed line.

    The guard before access ``i`` is the line of the stream's last
    allocating access (fetch or load) before ``i``; ``np.maximum.accumulate``
    finds it.  Under LRU (``touches``) a store to another line since that
    access voids it: counting those stores with ``np.cumsum`` tells whether
    any falls between the guard's access and ``i``.
    """
    n = uids.size
    positions = np.arange(n)
    last_alloc = np.maximum.accumulate(np.where(stores, -1, positions))
    # The guard in force at access i was set at access guard_at[i] (-1: none).
    guard_at = np.empty(n, dtype=np.int64)
    guard_at[:1] = -1
    guard_at[1:] = last_alloc[:-1]
    has_guard = guard_at >= 0
    guard_uid = uids[np.maximum(guard_at, 0)]
    sure = has_guard & (uids == guard_uid)
    if touches:
        voiding = np.cumsum(stores & has_guard & (uids != guard_uid))
        # Voiding stores strictly between access guard_at[i] and access i.
        before_i = np.concatenate(([0], voiding[:-1]))
        at_guard = voiding[np.maximum(guard_at, 0)]
        sure &= before_i == at_guard
    return sure


def compile_plan(config: HierarchyConfig, compiled: CompiledTrace) -> TracePlan:
    """Compile ``compiled`` for ``config`` into a :class:`TracePlan`.

    Every configuration :class:`~repro.cache.cache.CacheConfig` accepts is
    in the model: it admits only the replacement policies planned here.
    Each L1's stream is planned in whole-array passes (:func:`_sure_hits`).
    """
    has_l2 = config.l2 is not None
    kinds = compiled.kinds
    uids = compiled.line_ids
    slots = (kinds != FETCH_KIND).astype(np.int8)
    stores = kinds == STORE_KIND
    sure_hits = np.zeros(len(kinds), dtype=bool)
    for slot, cache in enumerate((config.il1, config.dl1)):
        members = np.flatnonzero(slots == slot)
        sure_hits[members] = _sure_hits(
            uids[members],
            stores[members],
            replacement_touches_on_hit(cache.replacement),
        )
    # A sure store hit with an L2 behind it stays a step: it writes into
    # the L2 and advances its state.
    elided = sure_hits & ~stores if has_l2 else sure_hits
    keep = ~elided
    elided_il1 = int(np.count_nonzero(elided & (slots == 0)))
    return TracePlan(
        steps=list(
            zip(
                slots[keep].tolist(),
                uids[keep].tolist(),
                stores[keep].tolist(),
                sure_hits[keep].tolist(),
            )
        ),
        n_accesses=len(kinds),
        elided={"il1": elided_il1, "dl1": int(np.count_nonzero(elided)) - elided_il1},
        # Each elided store hit (no L2) is one memory access, always.
        elided_store_memory_accesses=int(np.count_nonzero(elided & stores)),
    )

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
from typing import Dict, List, Optional, Tuple

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


def compile_plan(config: HierarchyConfig, compiled: CompiledTrace) -> TracePlan:
    """Compile ``compiled`` for ``config`` into a :class:`TracePlan`.

    Every configuration :class:`~repro.cache.cache.CacheConfig` accepts is
    in the model: it admits only the replacement policies planned here.
    """
    has_l2 = config.l2 is not None
    touches = [
        replacement_touches_on_hit(c.replacement) for c in (config.il1, config.dl1)
    ]

    steps: List[Step] = []
    elided = [0, 0]
    elided_store_mem = 0
    # Per slot: the guaranteed-resident uid, or None.
    guards: List[Optional[int]] = [None, None]

    fetch_kind, store_kind = FETCH_KIND, STORE_KIND
    for kind, uid in zip(compiled.kinds, compiled.line_ids):
        slot = 0 if kind == fetch_kind else 1
        is_store = kind == store_kind
        sure_hit = guards[slot] == uid
        if sure_hit and not (is_store and has_l2):
            elided[slot] += 1
            if is_store:
                # Store hit, no L2: one memory access, always.
                elided_store_mem += 1
            continue
        steps.append((slot, uid, is_store, sure_hit))
        if not is_store:
            guards[slot] = uid
        elif touches[slot] and not sure_hit:
            # A store to a different line may touch that line's recency
            # (if it hits), demoting the guaranteed line from
            # most-recently-used under LRU: the touch-elision licence is
            # gone.  Random hits are stateless, so the guarantee survives.
            guards[slot] = None

    return TracePlan(
        steps=steps,
        n_accesses=len(compiled.kinds),
        elided={"il1": elided[0], "dl1": elided[1]},
        elided_store_memory_accesses=elided_store_mem,
    )

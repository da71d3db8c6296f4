"""Trace compilation: aggregate a ``CompiledTrace`` before simulating it.

The batch engines used to interpret the raw ``(kinds, line_ids)`` stream one
access at a time, paying the full per-access cost even for accesses whose
outcome is the same under *every* seed.  This module preprocesses the stream
once per hierarchy into a :class:`TracePlan` — the aggregation-before-
computation move: compact summaries are computed once, and the expensive
per-seed work runs only where outcomes can actually differ.

Three kinds of derived structure are produced:

**Guaranteed-hit elision (same-line runs).**
An access is a *guaranteed hit* when the line is provably resident under
every seed, every placement map and every replacement decision, so the
access can be dropped from the simulated program entirely:

* *Randomized placement* (singleton rule): after any allocating access to
  line ``u``, ``u`` is resident.  A potential miss on ``u`` itself evicts at
  most one (unknown) line, so the only line whose residence survives the
  access is ``u``.  Hence the next access **to the same cache** is a
  guaranteed hit iff it touches the same line.
* *Deterministic placement* (per-set rule): set indices are seed-invariant,
  and an access can only evict lines of its own set, so the guarantee is
  tracked per set: an access is a guaranteed hit iff the previous access of
  its slot *mapping to the same set* touched the same line.  The rule needs
  one set map shared by every lane; a plan compiled with ``lane_maps=True``
  (each lane brings its own table of line addresses, hence its own map —
  the layout lanes of a deterministic campaign) applies the singleton rule
  in every slot instead.

Write-through stores never allocate and never evict, so they never
*establish* a residence guarantee; in a write-back cache every access
(re-)establishes the guarantee for its line.  Replacement policies whose
hits mutate per-set metadata (LRU stamps, PLRU tree bits —
``touches_on_hit``) add one demotion rule: a write-through store hitting a
*different* line than the guaranteed one still touches that line's
metadata, so the guaranteed line may stop being most-recently-used (LRU) or
the tree bits may be redirected (PLRU) — the guarantee (which licenses
skipping the touch) is dropped for any non-same-line write-through store.
Random and FIFO replacement have stateless hits (FIFO's cyclic counter
advances only on evictions), so the guarantee survives those stores.
Elided accesses are free: base latency already charges one L1 hit per trace
entry, repeated touches of the most-recently-used way preserve the relative
LRU stamp order and are exactly idempotent on PLRU tree bits, a write-back
store hit folds into a ``dirty_after`` flag on its *anchor* (the step that
established the guarantee), and a write-through store hit with no L2
contributes one memory access — a per-trace constant.  The one case that
cannot be elided is a write-through store hit with an L2 behind it: each one
advances shared L2 state, so it stays a step (flagged ``sure_hit`` so the
executor skips the lookup).

**Per-set occupancy structure.**
Filled ways are never invalidated, so each set fills ways ``0..k-1`` in
order; executors track a per-set occupancy counter instead of scanning tag
arrays for an invalid way, and a presence map (line -> way, or -1) replaces
tag-compare hit detection.  Both are consequences of the same per-set
aggregation that drives the deterministic elision rule.

**Conflict signatures and seed invariance.**
Each cache level gets a :class:`SlotSignature` describing whether its
behaviour can depend on the seed at all.  A slot is *inert* when its
placement is deterministic and either replacement is deterministic too
(LRU, FIFO, PLRU) or no set is ever oversubscribed (at most ``ways``
distinct lines map to any set, so the random victim stream is never
drawn).  When every slot is inert
the whole hierarchy is **seed-invariant**: all seeds are provably in one
equivalence class, and a campaign of any size collapses to one simulated
lane whose result is replicated (the deterministic-layout platforms of the
source paper — modulo and xor placement with LRU — hit this path).  The
signatures describe the compiled trace's own line table, so a
``lane_maps`` plan is never seed-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.cache import WRITE_BACK, CacheConfig
from ..cache.fastsim import FETCH_KIND, STORE_KIND, CompiledTrace
from ..cache.hierarchy import HierarchyConfig
from ..cache.replacement import (
    replacement_is_randomized,
    replacement_touches_on_hit,
)
from ..core.placement import make_placement, placement_is_randomized

__all__ = [
    "SlotSignature",
    "TracePlan",
    "compile_plan",
]


@dataclass(frozen=True)
class SlotSignature:
    """Seed-dependence summary of one cache level under one trace.

    Two seeds can only produce different results in this slot if the
    signature says so: a deterministic placement pins the set map, and with
    deterministic replacement (LRU, FIFO, PLRU — or sets that never
    overflow their associativity) the random victim stream is never
    consulted either — the slot is ``inert`` and behaves identically under
    every seed.
    """

    name: str
    placement: str
    replacement: str
    write_policy: str
    num_sets: int
    ways: int
    randomized: bool
    #: Distinct lines mapping to the fullest set (deterministic slots only).
    max_lines_per_set: Optional[int]
    #: True when this slot's behaviour cannot depend on the seed.
    inert: bool

    def key(self) -> Tuple:
        """Hashable identity used to compare layouts across configurations."""
        return (
            self.name, self.placement, self.replacement, self.write_policy,
            self.num_sets, self.ways, self.randomized, self.max_lines_per_set,
        )


#: One executable step: ``(slot, uid, is_store, sure_hit, dirty_after)``.
#: ``slot`` selects the L1 (0 = IL1, 1 = DL1), ``uid`` indexes the unique
#: line table, ``sure_hit`` marks steps proven to hit in every lane (kept
#: only because they advance L2 state), and ``dirty_after`` folds the
#: write-back store hits elided from this step's run into one dirty-bit set.
Step = Tuple[int, int, bool, bool, bool]


@dataclass
class TracePlan:
    """A compiled trace: the step program plus its derived structure."""

    steps: List[Step]
    n_accesses: int
    #: Accesses elided per L1 slot ("il1" / "dl1").
    elided: Dict[str, int]
    #: Memory accesses contributed by elided write-through store hits
    #: (no-L2 hierarchies only) — a per-lane constant.
    elided_store_memory_accesses: int
    signatures: Tuple[SlotSignature, ...]
    #: All seeds provably produce identical results (see module docstring).
    seed_invariant: bool

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
            "seed_invariant": self.seed_invariant,
            "signatures": tuple(sig.key() for sig in self.signatures),
        }


def _static_sets(config: CacheConfig, lines: np.ndarray) -> np.ndarray:
    """Seed-invariant set indices of a deterministic placement policy."""
    policy = make_placement(config.placement, config.geometry, seed=0)
    return policy.set_index_array(lines)


def _slot_signature(
    name: str, config: CacheConfig, lines: np.ndarray, uids: List[int]
) -> SlotSignature:
    randomized = placement_is_randomized(config.placement)
    max_lines_per_set: Optional[int] = None
    inert = False
    if not randomized:
        if uids:
            sets = _static_sets(config, lines)
            counts = np.bincount(
                sets[np.array(sorted(uids))], minlength=config.num_sets
            )
            max_lines_per_set = int(counts.max())
        else:
            max_lines_per_set = 0
        inert = (
            not replacement_is_randomized(config.replacement)
            or max_lines_per_set <= config.ways
        )
    return SlotSignature(
        name=name,
        placement=config.placement,
        replacement=config.replacement,
        write_policy=config.write_policy,
        num_sets=config.num_sets,
        ways=config.ways,
        randomized=randomized,
        max_lines_per_set=max_lines_per_set,
        inert=inert,
    )


def compile_plan(
    config: HierarchyConfig, compiled: CompiledTrace, lane_maps: bool = False
) -> TracePlan:
    """Compile ``compiled`` for ``config`` into a :class:`TracePlan`.

    Every configuration :class:`~repro.cache.cache.CacheConfig` accepts is
    in the model: it admits only the replacement policies planned here.
    ``lane_maps`` compiles for lanes that each replace the unique line table
    with their own (so no two lanes share a set map): every slot elides by
    the singleton rule and the plan is never seed-invariant.
    """
    lines = np.array(compiled.unique_lines, dtype=np.uint64)
    has_l2 = config.l2 is not None
    slot_configs = (config.il1, config.dl1)
    write_back = [c.write_policy == WRITE_BACK for c in slot_configs]
    touches = [replacement_touches_on_hit(c.replacement) for c in slot_configs]
    # Deterministic slots with a shared map elide per set; the others use
    # one whole-slot guarantee (key -1).
    set_keys: List[Optional[List[int]]] = [
        None
        if lane_maps or placement_is_randomized(c.placement)
        else _static_sets(c, lines).tolist()
        for c in slot_configs
    ]

    steps: List[List] = []
    elided = [0, 0]
    elided_store_mem = 0
    slot_uids: Tuple[set, set] = (set(), set())
    # Per slot: key (set index, or -1) -> (guaranteed-resident uid, anchor
    # step index).  The anchor is the step that established the guarantee;
    # elided write-back store hits fold their dirty bit into it.
    guards: Tuple[Dict[int, Tuple[int, int]], ...] = ({}, {})

    fetch_kind, store_kind = FETCH_KIND, STORE_KIND
    for kind, uid in zip(compiled.kinds, compiled.line_ids):
        slot = 0 if kind == fetch_kind else 1
        is_store = kind == store_kind
        slot_uids[slot].add(uid)
        wb = write_back[slot]
        wt_store = is_store and not wb
        keys = set_keys[slot]
        key = keys[uid] if keys is not None else -1
        guard = guards[slot]
        anchored = guard.get(key)
        sure_hit = anchored is not None and anchored[0] == uid
        if sure_hit and not (wt_store and has_l2):
            elided[slot] += 1
            if wt_store:
                # Write-through store hit, no L2: one memory access, always.
                elided_store_mem += 1
            elif is_store:
                # Write-back store hit: dirty bit folds into the anchor.
                steps[anchored[1]][4] = True
            continue
        index = len(steps)
        steps.append([slot, uid, is_store, sure_hit, False])
        if not wt_store:
            guard[key] = (uid, index)
        elif touches[slot] and not sure_hit:
            # A write-through store to a different line may touch that
            # line's replacement metadata (if it hits) — demoting the
            # guaranteed line from most-recently-used under LRU, or
            # redirecting the tree bits under PLRU; the touch-elision
            # licence is gone.  Random and FIFO hits are stateless, so the
            # guarantee survives.
            guard.pop(key, None)

    signatures = []
    for name, cache_config, uids in (
        ("il1", config.il1, slot_uids[0]),
        ("dl1", config.dl1, slot_uids[1]),
        # Conservative: any line can reach the L2 (demands and writebacks).
        ("l2", config.l2, set(range(len(lines)))),
    ):
        if cache_config is None:
            continue
        signatures.append(
            _slot_signature(name, cache_config, lines, sorted(uids))
        )

    return TracePlan(
        steps=[tuple(step) for step in steps],
        n_accesses=len(compiled.kinds),
        elided={"il1": elided[0], "dl1": elided[1]},
        elided_store_memory_accesses=elided_store_mem,
        signatures=tuple(signatures),
        seed_invariant=not lane_maps and all(sig.inert for sig in signatures),
    )

"""The object-oriented reference engine.

Replays the compiled trace on the inspectable
:class:`~repro.cache.hierarchy.CacheHierarchy` model.  It is the slowest
backend by far — its value is that the production numpy engine is
cross-validated against it — so its capability flags advertise that batching
buys nothing (every run rebuilds the hierarchy anyway).
"""

from __future__ import annotations

from typing import List, Sequence

from ..cache.fastsim import FETCH_KIND, LOAD_KIND, CompiledTrace, FastRunResult
from ..cache.hierarchy import CacheHierarchy, HierarchyConfig
from .base import Engine

__all__ = ["ReferenceEngine"]


class _ReferenceSimulator:
    """Replays one compiled trace per seed through :class:`CacheHierarchy`.

    The compiled trace stores addresses aligned to its compilation line
    size; replaying those instead of the original byte addresses is exact
    only while every cache level uses that same line size (then every cache
    decision — set, tag, victim — depends on the line address alone).  With
    mixed line sizes the numpy engine approximates at the compiled
    granularity, but the reference engine is the ground-truth oracle, so it
    refuses such configurations instead of silently agreeing with the
    approximation.
    """

    def __init__(self, config: HierarchyConfig, compiled: CompiledTrace) -> None:
        for cache_config in (config.il1, config.dl1, config.l2):
            if cache_config is not None and cache_config.line_size != compiled.line_size:
                raise ValueError(
                    f"reference engine needs every cache line size to match the "
                    f"compiled trace's ({compiled.line_size}B); {cache_config.name} "
                    f"uses {cache_config.line_size}B, so line-aligned replay would "
                    f"not be exact"
                )
        self.config = config
        self.compiled = compiled

    def run(self, seed: int) -> FastRunResult:
        hierarchy = CacheHierarchy(self.config, seed=seed)
        lines = self.compiled.unique_lines
        for kind, uid in zip(self.compiled.kinds, self.compiled.line_ids):
            address = lines[uid]
            if kind == FETCH_KIND:
                hierarchy.fetch(address)
            elif kind == LOAD_KIND:
                hierarchy.load(address)
            else:
                hierarchy.store(address)
        stats = hierarchy.stats()
        has_l2 = "l2" in stats
        return FastRunResult(
            cycles=hierarchy.cycles,
            memory_accesses=hierarchy.memory_accesses,
            il1_accesses=int(stats["il1"]["accesses"]),
            il1_misses=int(stats["il1"]["misses"]),
            dl1_accesses=int(stats["dl1"]["accesses"]),
            dl1_misses=int(stats["dl1"]["misses"]),
            l2_accesses=int(stats["l2"]["accesses"]) if has_l2 else 0,
            l2_misses=int(stats["l2"]["misses"]) if has_l2 else 0,
        )

    def run_batch(self, seeds: Sequence[int]) -> List[FastRunResult]:
        return [self.run(seed) for seed in seeds]


class ReferenceEngine(Engine):
    """Slow, inspectable object-oriented model (the ground truth)."""

    name = "reference"
    supports_batch = False
    bit_exact = True

    def simulator(
        self, config: HierarchyConfig, compiled: CompiledTrace
    ) -> _ReferenceSimulator:
        return _ReferenceSimulator(config, compiled)

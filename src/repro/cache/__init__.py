"""Cache substrate: memory-access traces, set-associative caches, hierarchies
and compiled traces."""

from .cache import (
    AccessOutcome,
    CacheConfig,
    CacheStats,
    SetAssociativeCache,
    derive_policy_seeds,
)
from .fastsim import CompiledTrace, FastRunResult
from .hierarchy import CacheHierarchy, HierarchyConfig, MemoryTimings, derive_cache_seeds
from .replacement import (
    REPLACEMENT_NAMES,
    LruReplacement,
    RandomReplacement,
    ReplacementPolicy,
    make_replacement,
)
from .trace import AccessKind, Trace

__all__ = [
    "AccessOutcome",
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "derive_policy_seeds",
    "CompiledTrace",
    "FastRunResult",
    "CacheHierarchy",
    "HierarchyConfig",
    "MemoryTimings",
    "derive_cache_seeds",
    "REPLACEMENT_NAMES",
    "LruReplacement",
    "RandomReplacement",
    "ReplacementPolicy",
    "make_replacement",
    "AccessKind",
    "Trace",
]

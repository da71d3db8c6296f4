"""Cache substrate: set-associative caches, hierarchies and compiled traces."""

from .cache import (
    WRITE_BACK,
    WRITE_THROUGH,
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
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
    ReplacementPolicy,
    TreePlruReplacement,
    make_replacement,
)

__all__ = [
    "WRITE_BACK",
    "WRITE_THROUGH",
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
    "FifoReplacement",
    "LruReplacement",
    "RandomReplacement",
    "ReplacementPolicy",
    "TreePlruReplacement",
    "make_replacement",
]

"""Two-level cache hierarchy modelled after the paper's LEON3 platform.

The hierarchy contains a private instruction L1, a private data L1 and a
shared L2 in front of main memory.  Latencies are configurable through
:class:`MemoryTimings`; the defaults approximate the LEON3 FPGA prototype
used in the paper (single-cycle L1 hits, on-chip L2, off-chip SDRAM).

The model is trace-accurate for what matters to the paper: every instruction
fetch probes the IL1, every load/store probes the DL1, L1 misses probe the
L2, and L2 misses pay the memory latency.  The write policy follows the
level, as on the LEON3: the L1s are write-through with no write-allocate,
the L2 is write-back with write-allocate.  Write-through L1 stores are
assumed to be absorbed by a store buffer (no added latency on hits) but the
write traffic is still recorded in the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.prng import SplitMix64
from .cache import CacheConfig, SetAssociativeCache

__all__ = [
    "MemoryTimings",
    "HierarchyConfig",
    "CacheHierarchy",
    "derive_cache_seeds",
]


def derive_cache_seeds(hierarchy_seed: int) -> tuple[int, int, int]:
    """Derive (IL1, DL1, L2) cache seeds from one per-run hierarchy seed.

    Used by the reference hierarchy and vectorized by the numpy campaign
    engine, so that the two simulate bit-identical runs for the same seed.
    """
    expander = SplitMix64(hierarchy_seed)
    return expander.next_uint64(), expander.next_uint64(), expander.next_uint64()


@dataclass(frozen=True)
class MemoryTimings:
    """Access latencies in processor cycles.

    ``l1_hit`` is the total latency of an access that hits in an L1 cache;
    ``l2_hit`` is the *additional* latency paid when the access misses the L1
    but hits the L2; ``memory`` is the additional latency of going to main
    memory; ``writeback`` is the cost of writing a dirty L2 victim back to
    memory.
    """

    l1_hit: int = 1
    l2_hit: int = 10
    memory: int = 30
    writeback: int = 6

    def __post_init__(self) -> None:
        for name in ("l1_hit", "l2_hit", "memory", "writeback"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} latency must be non-negative")


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the three caches plus the timing model."""

    il1: CacheConfig
    dl1: CacheConfig
    l2: Optional[CacheConfig] = None
    timings: MemoryTimings = MemoryTimings()


class CacheHierarchy:
    """Write-through IL1 + DL1 + optional write-back L2 in front of main memory."""

    def __init__(self, config: HierarchyConfig, seed: int = 0) -> None:
        self.config = config
        il1_seed, dl1_seed, l2_seed = derive_cache_seeds(seed)
        self.il1 = SetAssociativeCache(config.il1, seed=il1_seed)
        self.dl1 = SetAssociativeCache(config.dl1, seed=dl1_seed)
        self.l2: Optional[SetAssociativeCache] = (
            SetAssociativeCache(config.l2, seed=l2_seed, write_back=True)
            if config.l2 is not None
            else None
        )
        #: Total cycles spent in memory accesses since the last reset.
        self.cycles = 0
        #: Number of accesses to main memory (L2 misses, or L1 misses when
        #: there is no L2).
        self.memory_accesses = 0

    # ------------------------------------------------------------------ state

    def reseed(self, seed: int) -> None:
        """Give every cache a fresh, independent seed and flush contents."""
        il1_seed, dl1_seed, l2_seed = derive_cache_seeds(seed)
        self.il1.reseed(il1_seed)
        self.dl1.reseed(dl1_seed)
        if self.l2 is not None:
            self.l2.reseed(l2_seed)

    def flush(self) -> None:
        """Invalidate all caches without changing seeds."""
        self.il1.flush()
        self.dl1.flush()
        if self.l2 is not None:
            self.l2.flush()

    def reset_stats(self) -> None:
        """Zero all statistics and the cycle counter."""
        self.il1.reset_stats()
        self.dl1.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        self.cycles = 0
        self.memory_accesses = 0

    # ----------------------------------------------------------------- access

    def fetch(self, address: int) -> int:
        """Fetch an instruction; returns the latency in cycles."""
        return self._access(self.il1, address, is_write=False)

    def load(self, address: int) -> int:
        """Perform a data load; returns the latency in cycles."""
        return self._access(self.dl1, address, is_write=False)

    def store(self, address: int) -> int:
        """Perform a data store; returns the latency in cycles."""
        return self._access(self.dl1, address, is_write=True)

    def _access(self, l1: SetAssociativeCache, address: int, is_write: bool) -> int:
        latency = self.config.timings.l1_hit
        outcome = l1.access(address, is_write=is_write)
        if outcome.hit:
            if is_write:
                self._store_through(address)
            self.cycles += latency
            return latency

        # L1 miss: the request goes to the next level.
        latency += self._read_next_level(address, is_write=is_write)
        self.cycles += latency
        return latency

    def _read_next_level(self, address: int, is_write: bool = False) -> int:
        timings = self.config.timings
        if self.l2 is None:
            self.memory_accesses += 1
            return timings.memory
        outcome = self.l2.access(address, is_write=is_write)
        extra = timings.l2_hit
        if outcome.writeback:
            extra += timings.writeback
            self.memory_accesses += 1
        if not outcome.hit:
            extra += timings.memory
            self.memory_accesses += 1
        return extra

    def _store_through(self, address: int) -> None:
        """Propagate an L1 store hit to the next level.

        The store buffer absorbs it, so it costs no cycles, but the write
        traffic is recorded: a memory access without an L2, else an L2
        write that allocates on a miss (its dirty victim is dropped).
        """
        if self.l2 is None:
            self.memory_accesses += 1
        else:
            self.l2.access(address, is_write=True)

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-cache statistics dictionaries plus hierarchy-level counters."""
        result = {
            "il1": self.il1.stats.as_dict(),
            "dl1": self.dl1.stats.as_dict(),
            "totals": {
                "cycles": self.cycles,
                "memory_accesses": self.memory_accesses,
            },
        }
        if self.l2 is not None:
            result["l2"] = self.l2.stats.as_dict()
        return result

"""Reference model of a set-associative cache.

This is the object-oriented, easy-to-inspect cache model used by the unit
tests and the ``reference`` engine.  The
measurement campaigns use the vectorized ``numpy`` engine
(:mod:`repro.engine.numpy_engine`), which is cross-validated against this
model in the test suite.

The model tracks tags, valid and dirty bits per way, delegates the
address-to-set mapping to a :class:`~repro.core.placement.PlacementPolicy`
and the victim selection to a
:class:`~repro.cache.replacement.ReplacementPolicy`, and implements the two
write policies discussed in the paper (write-through + no-write-allocate, as
used by first-level caches of safety-critical processors, and write-back +
write-allocate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.bits import is_power_of_two
from ..core.placement import (
    PLACEMENT_CLASSES,
    PLACEMENT_NAMES,
    PlacementGeometry,
    PlacementPolicy,
    make_placement,
)
from ..core.prng import SplitMix64
from .replacement import REPLACEMENT_NAMES, ReplacementPolicy, make_replacement

__all__ = [
    "CacheConfig",
    "CacheStats",
    "AccessOutcome",
    "SetAssociativeCache",
    "derive_policy_seeds",
]


def derive_policy_seeds(cache_seed: int) -> Tuple[int, int]:
    """Derive independent (placement, replacement) seeds from a cache seed.

    The reference model uses this helper, and the numpy engine vectorizes
    the same chain, so that identical cache seeds produce identical random
    placements *and* identical random-replacement victim sequences.
    """
    expander = SplitMix64(cache_seed)
    return expander.next_uint64(), expander.next_uint64()

#: Write policy constants.
WRITE_THROUGH = "write-through"
WRITE_BACK = "write-back"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy selection for one cache.

    Attributes
    ----------
    name:
        Human-readable cache name (e.g. ``"IL1"``).
    size_bytes:
        Total capacity in bytes.
    ways:
        Associativity.
    line_size:
        Line size in bytes.
    placement:
        Placement policy name (see :data:`repro.core.placement.PLACEMENT_NAMES`).
    replacement:
        Replacement policy name (see
        :data:`repro.cache.replacement.REPLACEMENT_NAMES`).
    write_policy:
        ``"write-through"`` (no-write-allocate) or ``"write-back"``
        (write-allocate).
    address_bits:
        Physical address width.
    """

    name: str = "cache"
    size_bytes: int = 16 * 1024
    ways: int = 4
    line_size: int = 32
    placement: str = "modulo"
    replacement: str = "random"
    write_policy: str = WRITE_THROUGH
    address_bits: int = 32

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.size_bytes % (self.ways * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"ways * line_size = {self.ways * self.line_size}"
            )
        if not is_power_of_two(self.num_sets):
            raise ValueError(
                f"{self.name}: number of sets must be a power of two, got {self.num_sets}"
            )
        if self.write_policy not in (WRITE_THROUGH, WRITE_BACK):
            raise ValueError(
                f"{self.name}: write_policy must be '{WRITE_THROUGH}' or "
                f"'{WRITE_BACK}', got {self.write_policy!r}"
            )
        # Exact names only: the engines compare against these literals, so a
        # variant spelling ("LRU") would otherwise run as another policy.
        if self.replacement not in REPLACEMENT_NAMES:
            raise ValueError(
                f"{self.name}: replacement must be one of {REPLACEMENT_NAMES}, "
                f"got {self.replacement!r}"
            )
        placement = PLACEMENT_CLASSES.get(self.placement.lower())
        if placement is None:
            raise ValueError(
                f"{self.name}: placement must be one of {PLACEMENT_NAMES}, "
                f"got {self.placement!r}"
            )
        if self.num_sets < placement.min_sets:
            raise ValueError(
                f"{self.name}: {placement.name} placement needs at least "
                f"{placement.min_sets} sets, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets: ``size / (ways * line_size)``."""
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def geometry(self) -> PlacementGeometry:
        """The placement geometry implied by this configuration."""
        return PlacementGeometry(
            num_sets=self.num_sets,
            line_size=self.line_size,
            address_bits=self.address_bits,
        )

    @property
    def way_size(self) -> int:
        """Size of one way (the cache-segment size of the paper)."""
        return self.size_bytes // self.ways


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    read_misses: int = 0
    write_accesses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all accesses (0.0 when there were no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hit ratio over all accesses (0.0 when there were no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the counters plus derived rates as a plain dictionary."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "read_accesses": self.read_accesses,
            "read_misses": self.read_misses,
            "write_accesses": self.write_accesses,
            "write_misses": self.write_misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "fills": self.fills,
            "miss_rate": self.miss_rate,
            "hit_rate": self.hit_rate,
        }


@dataclass
class AccessOutcome:
    """Result of a single cache access.

    ``allocated`` is False for write-through write misses (no-write-allocate)
    — the access still goes to the next level but does not install a line.
    ``victim_address`` is the line-aligned byte address of an evicted line,
    ``writeback`` tells whether that line was dirty and must be written back.
    """

    hit: bool
    allocated: bool = True
    victim_address: Optional[int] = None
    writeback: bool = False


@dataclass
class _Line:
    """One cache line's bookkeeping state."""

    valid: bool = False
    tag: int = 0
    line_address: int = 0
    dirty: bool = False


class SetAssociativeCache:
    """Reference set-associative cache with pluggable placement/replacement."""

    def __init__(
        self,
        config: CacheConfig,
        placement: Optional[PlacementPolicy] = None,
        replacement: Optional[ReplacementPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        placement_seed, replacement_seed = derive_policy_seeds(seed)
        self.placement = placement or make_placement(
            config.placement, config.geometry, seed=placement_seed
        )
        self.replacement = replacement or make_replacement(
            config.replacement, config.num_sets, config.ways, seed=replacement_seed
        )
        self.stats = CacheStats()
        self._sets: List[List[_Line]] = [
            [_Line() for _ in range(config.ways)] for _ in range(config.num_sets)
        ]

    # ------------------------------------------------------------------ state

    def flush(self) -> None:
        """Invalidate every line (dirty contents are dropped, as on reseed)."""
        for cache_set in self._sets:
            for line in cache_set:
                line.valid = False
                line.dirty = False
        self.replacement.reset()

    def reseed(self, seed: int) -> None:
        """Install a new per-run seed and flush the contents.

        The paper requires the cache to be flushed whenever the seed changes
        so that the contents remain consistent with the new mapping.
        """
        placement_seed, replacement_seed = derive_policy_seeds(seed)
        self.placement.reseed(placement_seed)
        self.replacement.reseed(replacement_seed)
        self.flush()

    def reset_stats(self) -> None:
        """Zero the statistics counters without touching the contents."""
        self.stats = CacheStats()

    # ---------------------------------------------------------------- queries

    def lookup(self, address: int) -> bool:
        """Return True if ``address`` currently hits, without updating state."""
        set_index = self.placement.set_index(address)
        tag = self.placement.tag(address)
        return any(
            line.valid and line.tag == tag for line in self._sets[set_index]
        )

    def resident_lines(self) -> List[int]:
        """Line-aligned byte addresses of all valid lines (for inspection)."""
        resident = []
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid:
                    resident.append(line.line_address)
        return sorted(resident)

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        total = self.config.num_sets * self.config.ways
        return len(self.resident_lines()) / total if total else 0.0

    def set_contents(self, set_index: int) -> List[Optional[int]]:
        """Line addresses stored in ``set_index`` (None for invalid ways)."""
        return [
            line.line_address if line.valid else None
            for line in self._sets[set_index]
        ]

    # ----------------------------------------------------------------- access

    def access(self, address: int, is_write: bool = False) -> AccessOutcome:
        """Perform one access and update contents, metadata and statistics."""
        config = self.config
        set_index = self.placement.set_index(address)
        tag = self.placement.tag(address)
        line_address = address & ~(config.line_size - 1)
        cache_set = self._sets[set_index]

        self.stats.accesses += 1
        if is_write:
            self.stats.write_accesses += 1
        else:
            self.stats.read_accesses += 1

        for way, line in enumerate(cache_set):
            if line.valid and line.tag == tag:
                self.stats.hits += 1
                self.replacement.touch(set_index, way)
                if is_write and config.write_policy == WRITE_BACK:
                    line.dirty = True
                return AccessOutcome(hit=True)

        # Miss.
        self.stats.misses += 1
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1

        if is_write and config.write_policy == WRITE_THROUGH:
            # No-write-allocate: the store is forwarded to the next level
            # without installing the line.
            return AccessOutcome(hit=False, allocated=False)

        victim_address: Optional[int] = None
        writeback = False
        way = self._find_invalid_way(cache_set)
        if way is None:
            way = self.replacement.victim(set_index)
            victim = cache_set[way]
            victim_address = victim.line_address
            writeback = victim.dirty and config.write_policy == WRITE_BACK
            self.stats.evictions += 1
            if writeback:
                self.stats.writebacks += 1

        line = cache_set[way]
        line.valid = True
        line.tag = tag
        line.line_address = line_address
        line.dirty = is_write and config.write_policy == WRITE_BACK
        self.stats.fills += 1
        self.replacement.touch(set_index, way)
        return AccessOutcome(
            hit=False,
            allocated=True,
            victim_address=victim_address,
            writeback=writeback,
        )

    @staticmethod
    def _find_invalid_way(cache_set: List[_Line]) -> Optional[int]:
        for way, line in enumerate(cache_set):
            if not line.valid:
                return way
        return None

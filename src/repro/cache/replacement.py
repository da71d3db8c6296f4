"""Replacement policies for set-associative caches.

The paper's MBPTA-compliant designs pair a random *placement* function with
random *replacement* (as in the LEON3/LEON4 and ARM Cortex-R families);
the deterministic baseline uses LRU.  These are the two policies modelled:

* :class:`LruReplacement` — true least-recently-used.
* :class:`RandomReplacement` — evict a uniformly random way (driven by a
  seeded PRNG so that analysis-time and operation-time behaviour are
  governed by the same probability distribution).

A policy instance manages the metadata of *all* sets of one cache so that the
cache model stays a thin orchestration layer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from ..core.prng import SplitMix64

__all__ = [
    "ReplacementPolicy",
    "LruReplacement",
    "RandomReplacement",
    "make_replacement",
    "replacement_touches_on_hit",
    "REPLACEMENT_CLASSES",
    "REPLACEMENT_NAMES",
]


class ReplacementPolicy(ABC):
    """Per-set replacement metadata and victim selection."""

    name: str = "abstract"
    #: True when a hit mutates per-set metadata (LRU's recency order).
    #: Random replacement's :meth:`touch` is a no-op, so its hits are
    #: stateless, which the plan compiler exploits: eliding a guaranteed hit
    #: cannot change any future victim choice.
    touches_on_hit: bool = False

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets < 1 or num_ways < 1:
            raise ValueError("num_sets and num_ways must be >= 1")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.reset()

    @abstractmethod
    def reset(self) -> None:
        """Clear all metadata (called on cache flush)."""

    @abstractmethod
    def victim(self, set_index: int) -> int:
        """Return the way to evict in ``set_index``."""

    def touch(self, set_index: int, way: int) -> None:
        """Record a hit/fill of ``way`` in ``set_index`` (default: no-op)."""

    def reseed(self, seed: int) -> None:
        """Reseed the policy's randomness (no-op for deterministic ones)."""


class LruReplacement(ReplacementPolicy):
    """True LRU: evict the least recently used way of the set."""

    name = "lru"
    touches_on_hit = True

    def reset(self) -> None:
        # Most-recently-used order per set, index 0 = LRU, last = MRU.
        self._order: List[List[int]] = [
            list(range(self.num_ways)) for _ in range(self.num_sets)
        ]

    def victim(self, set_index: int) -> int:
        return self._order[set_index][0]

    def touch(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)


class RandomReplacement(ReplacementPolicy):
    """Evict a uniformly random way, as in LEON3/LEON4 random replacement."""

    name = "random"

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        self._rng = SplitMix64(seed)
        super().__init__(num_sets, num_ways)

    def reset(self) -> None:
        # Random replacement keeps no per-set state.
        return None

    def reseed(self, seed: int) -> None:
        self._rng = SplitMix64(seed)

    def victim(self, set_index: int) -> int:
        return self._rng.next_below(self.num_ways)


#: Policy classes by name — lets callers inspect class-level traits such as
#: ``touches_on_hit`` without instantiating a policy (mirrors
#: ``repro.core.placement.PLACEMENT_CLASSES``).
REPLACEMENT_CLASSES = {
    "lru": LruReplacement,
    "random": RandomReplacement,
}

#: Names accepted by :func:`make_replacement`.
REPLACEMENT_NAMES = tuple(REPLACEMENT_CLASSES)


def _replacement_class(name: str) -> type:
    try:
        return REPLACEMENT_CLASSES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {REPLACEMENT_NAMES}"
        ) from error


def replacement_touches_on_hit(name: str) -> bool:
    """Whether a hit mutates the named policy's per-set metadata."""
    return bool(_replacement_class(name).touches_on_hit)


def make_replacement(
    name: str, num_sets: int, num_ways: int, seed: int = 0
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    cls = _replacement_class(name)
    if cls is RandomReplacement:
        return RandomReplacement(num_sets, num_ways, seed=seed)
    return cls(num_sets, num_ways)

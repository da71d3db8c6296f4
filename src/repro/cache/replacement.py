"""Replacement policies for set-associative caches.

The paper's MBPTA-compliant designs pair a random *placement* function with
random *replacement* (as in the LEON3/LEON4 and ARM Cortex-R families);
deterministic baselines typically use LRU.  Four policies are provided:

* :class:`LruReplacement` — true least-recently-used.
* :class:`RandomReplacement` — evict a uniformly random way (driven by the
  hardware-style PRNG so that analysis-time and operation-time behaviour are
  governed by the same probability distribution).
* :class:`FifoReplacement` — round-robin/FIFO per set.
* :class:`TreePlruReplacement` — the tree-based pseudo-LRU used by many
  commercial cores, included for the deterministic comparisons.

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
    "FifoReplacement",
    "TreePlruReplacement",
    "make_replacement",
    "replacement_touches_on_hit",
    "REPLACEMENT_CLASSES",
    "REPLACEMENT_NAMES",
]


class ReplacementPolicy(ABC):
    """Per-set replacement metadata and victim selection."""

    name: str = "abstract"
    #: True when a hit mutates per-set metadata (LRU stamps, PLRU tree bits).
    #: Policies where :meth:`touch` is a no-op (random, FIFO) leave hits
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


class FifoReplacement(ReplacementPolicy):
    """Round-robin (FIFO) replacement: evict ways in cyclic order."""

    name = "fifo"

    def reset(self) -> None:
        self._next: List[int] = [0] * self.num_sets

    def victim(self, set_index: int) -> int:
        way = self._next[set_index]
        self._next[set_index] = (way + 1) % self.num_ways
        return way


class TreePlruReplacement(ReplacementPolicy):
    """Tree-based pseudo-LRU for power-of-two associativities.

    Each set keeps ``num_ways - 1`` tree bits; a hit flips the bits along the
    path to point *away* from the accessed way, and the victim is found by
    following the bits from the root.
    """

    name = "plru"
    touches_on_hit = True

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_ways & (num_ways - 1):
            raise ValueError(
                f"TreePlruReplacement requires a power-of-two associativity, got {num_ways}"
            )
        super().__init__(num_sets, num_ways)

    def reset(self) -> None:
        self._bits: List[List[int]] = [
            [0] * (self.num_ways - 1) for _ in range(self.num_sets)
        ]

    def victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        # Internal nodes are stored heap-style: children of node i are
        # 2i + 1 and 2i + 2; a bit of 0 points to the left subtree.
        while node < self.num_ways - 1:
            node = 2 * node + 1 + bits[node]
        return node - (self.num_ways - 1)

    def touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = way + (self.num_ways - 1)
        while node > 0:
            parent = (node - 1) // 2
            is_left_child = node == 2 * parent + 1
            # Point the parent away from the child that was just used.
            bits[parent] = 1 if is_left_child else 0
            node = parent


#: Policy classes by name — lets callers inspect class-level traits such as
#: ``touches_on_hit`` without instantiating a policy (mirrors
#: ``repro.core.placement.PLACEMENT_CLASSES``).
REPLACEMENT_CLASSES = {
    "lru": LruReplacement,
    "random": RandomReplacement,
    "fifo": FifoReplacement,
    "plru": TreePlruReplacement,
}

#: Names accepted by :func:`make_replacement`.
REPLACEMENT_NAMES = tuple(REPLACEMENT_CLASSES)


def _replacement_class(name: str) -> type:
    try:
        return REPLACEMENT_CLASSES[name.lower()]
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

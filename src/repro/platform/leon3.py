"""LEON3-like platform configurations.

The paper evaluates Random Modulo on a LEON3 (SPARC V8) prototype with
private 16 KB 4-way L1 instruction and data caches, a shared 4-way 128 KB L2
and 32-byte lines.  This module provides factory helpers that build the
corresponding :class:`~repro.cache.hierarchy.HierarchyConfig` for the cache
setups used in the evaluation:

* ``rm`` — Random Modulo in both L1s (the proposal); the L2 keeps hRP, as in
  the paper's Section 4.3 setup.
* ``hrp`` — hash-based random placement in the L1s and the L2.
* ``modulo`` — the deterministic baseline (modulo placement with LRU
  replacement), used for the high-water-mark comparison and the
  average-performance comparison.

Every hierarchy has write-through L1s and a write-back L2, as the paper's
platform does; the level fixes the write policy, so no factory takes one.
Setup and policy names are matched exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from ..cache.cache import CacheConfig
from ..cache.hierarchy import HierarchyConfig, MemoryTimings
from ..cache.replacement import REPLACEMENT_NAMES
from ..core.placement import PLACEMENT_NAMES

__all__ = ["Leon3Parameters", "leon3_hierarchy", "PLATFORM_SETUPS", "platform_setup"]


@dataclass(frozen=True)
class Leon3Parameters:
    """Cache geometry and timing knobs of the modelled LEON3 platform.

    The defaults follow the configuration given in Section 4 of the paper.
    ``l2_size_bytes`` is the capacity visible to the analysed task; the
    paper's shared 128 KB L2 is partitioned across 4 cores for multicore
    experiments, so single-core experiments may also be run with a 32 KB
    partition by passing ``l2_size_bytes=32 * 1024``.
    """

    l1_size_bytes: int = 16 * 1024
    l1_ways: int = 4
    l2_size_bytes: int = 128 * 1024
    l2_ways: int = 4
    line_size: int = 32
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 10
    memory_cycles: int = 30
    writeback_cycles: int = 6

    def __post_init__(self) -> None:
        # Checked, not coerced: 16384.0 == 16384, yet it would fail in a
        # bit operation, and it hashes as another spec.
        for name in _PARAMETER_NAMES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")

    @property
    def timings(self) -> MemoryTimings:
        return MemoryTimings(
            l1_hit=self.l1_hit_cycles,
            l2_hit=self.l2_hit_cycles,
            memory=self.memory_cycles,
            writeback=self.writeback_cycles,
        )


_PARAMETER_NAMES = tuple(field.name for field in fields(Leon3Parameters))


def leon3_hierarchy(
    l1_placement: str = "rm",
    l2_placement: str = "hrp",
    l1_replacement: str = "random",
    l2_replacement: str = "random",
    parameters: Optional[Leon3Parameters] = None,
    with_l2: bool = True,
) -> HierarchyConfig:
    """Build a LEON3-like :class:`HierarchyConfig`.

    Parameters mirror the experimental knobs of the paper: the placement of
    the L1s and of the L2 can be selected independently (the pWCET
    experiments keep hRP in the L2 while switching the L1s between hRP and
    RM), and the L2 can be dropped entirely for microbenchmarks.  Each
    policy name is checked by its parameter's name, the L2's too when
    ``with_l2`` is false.
    """
    for name, value, accepted in (
        ("l1_placement", l1_placement, PLACEMENT_NAMES),
        ("l2_placement", l2_placement, PLACEMENT_NAMES),
        ("l1_replacement", l1_replacement, REPLACEMENT_NAMES),
        ("l2_replacement", l2_replacement, REPLACEMENT_NAMES),
    ):
        if value not in accepted:
            raise ValueError(f"{name} must be one of {accepted}, got {value!r}")
    params = parameters or Leon3Parameters()
    il1 = CacheConfig(
        name="IL1",
        size_bytes=params.l1_size_bytes,
        ways=params.l1_ways,
        line_size=params.line_size,
        placement=l1_placement,
        replacement=l1_replacement,
    )
    dl1 = replace(il1, name="DL1")
    l2 = (
        CacheConfig(
            name="L2",
            size_bytes=params.l2_size_bytes,
            ways=params.l2_ways,
            line_size=params.line_size,
            placement=l2_placement,
            replacement=l2_replacement,
        )
        if with_l2
        else None
    )
    return HierarchyConfig(il1=il1, dl1=dl1, l2=l2, timings=params.timings)


#: The named cache setups used throughout the evaluation.
PLATFORM_SETUPS: Dict[str, Dict[str, str]] = {
    # The proposal: RM L1s, hRP L2 (Section 4.3 setup 2).
    "rm": {"l1_placement": "rm", "l2_placement": "hrp", "l1_replacement": "random"},
    # The existing MBPTA-compliant design (Section 4.3 setup 1).
    "hrp": {"l1_placement": "hrp", "l2_placement": "hrp", "l1_replacement": "random"},
    # Deterministic industrial baseline: modulo placement, LRU replacement.
    "modulo": {
        "l1_placement": "modulo",
        "l2_placement": "modulo",
        "l1_replacement": "lru",
        "l2_replacement": "lru",
    },
}


def platform_setup(
    name: str,
    parameters: Optional[Leon3Parameters] = None,
    with_l2: bool = True,
) -> HierarchyConfig:
    """Return the named platform setup (``rm``, ``hrp`` or ``modulo``)."""
    try:
        kwargs = PLATFORM_SETUPS[name]
    except KeyError as error:
        raise ValueError(
            f"setup must be one of {tuple(PLATFORM_SETUPS)}, got {name!r}"
        ) from error
    return leon3_hierarchy(parameters=parameters, with_l2=with_l2, **kwargs)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryTimings
from repro.cache.trace import Trace
from repro.core.placement import PlacementGeometry
from repro.workloads.base import KernelSpec, build_kernel_trace


@pytest.fixture
def small_geometry() -> PlacementGeometry:
    """A small 16-set, 32-byte-line geometry used by placement tests."""
    return PlacementGeometry(num_sets=16, line_size=32)


@pytest.fixture
def leon3_geometry() -> PlacementGeometry:
    """The L1 geometry of the paper's LEON3 (128 sets, 32-byte lines)."""
    return PlacementGeometry(num_sets=128, line_size=32)


@pytest.fixture
def tiny_hierarchy_config() -> HierarchyConfig:
    """A miniature two-level hierarchy that conflicts easily (fast tests).

    The L1s use hRP placement so that campaigns on this configuration show
    run-to-run variability even for small working sets (Random Modulo would
    be conflict-free, hence constant, at this scale).
    """
    il1 = CacheConfig(
        name="IL1", size_bytes=1024, ways=2, line_size=32,
        placement="hrp", replacement="random", write_policy="write-through",
    )
    dl1 = CacheConfig(
        name="DL1", size_bytes=1024, ways=2, line_size=32,
        placement="hrp", replacement="random", write_policy="write-through",
    )
    l2 = CacheConfig(
        name="L2", size_bytes=4096, ways=4, line_size=32,
        placement="hrp", replacement="random", write_policy="write-back",
    )
    return HierarchyConfig(il1=il1, dl1=dl1, l2=l2, timings=MemoryTimings())


@pytest.fixture
def small_kernel_trace() -> Trace:
    """A small but non-trivial kernel trace (~1500 accesses)."""
    spec = KernelSpec(
        name="unit_kernel",
        description="small kernel for unit tests",
        code_bytes=256,
        table_bytes=(512, 256),
        state_bytes=64,
        iterations=16,
        loads_per_iteration=12,
        stores_per_iteration=4,
        pattern="strided",
        stride=32,
    )
    return build_kernel_trace(spec)

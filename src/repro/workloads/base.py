"""Workload infrastructure: memory layouts and the generic kernel generator.

The paper's workloads are EEMBC Automotive benchmarks and a synthetic
vector-traversal kernel running on a LEON3.  The EEMBC sources are
proprietary, so this package provides *synthetic stand-ins* that reproduce
the characteristics that matter for cache-placement experiments: the code
footprint, the data structures (look-up tables, state records, buffers), the
access pattern over them and the loop structure.  Each stand-in produces a
memory-access :class:`~repro.cache.trace.Trace`.

A :class:`MemoryLayout` pins the base addresses of the code and data
segments.  Randomised cache designs are insensitive to it by construction
(that is the point of the paper), while for the deterministic baseline the
layout is varied across runs to emulate the "stressing conditions" of the
industrial high-water-mark practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..cache.trace import AccessKind, Trace
from ..core.prng import SplitMix64

__all__ = [
    "MemoryLayout",
    "KernelSpec",
    "build_kernel_trace",
    "check_scale",
    "random_layouts",
    "relocate_trace",
    "ACCESS_PATTERNS",
]

#: Default segment bases, loosely following the LEON3 memory map.
DEFAULT_CODE_BASE = 0x4000_0000
DEFAULT_DATA_BASE = 0x4010_0000
DEFAULT_STACK_BASE = 0x407F_F000


@dataclass(frozen=True)
class MemoryLayout:
    """Where the program's code, data and stack live in memory."""

    code_base: int = DEFAULT_CODE_BASE
    data_base: int = DEFAULT_DATA_BASE
    stack_base: int = DEFAULT_STACK_BASE

    def shifted(self, code_shift: int = 0, data_shift: int = 0, stack_shift: int = 0) -> "MemoryLayout":
        """Return a copy with the segments moved by the given byte offsets."""
        return MemoryLayout(
            code_base=self.code_base + code_shift,
            data_base=self.data_base + data_shift,
            stack_base=self.stack_base + stack_shift,
        )


def random_layouts(
    count: int,
    master_seed: int = 0,
    granularity: int = 64,
    span: int = 4096,
    base: Optional[MemoryLayout] = None,
) -> List[MemoryLayout]:
    """Generate ``count`` memory layouts with randomly shifted segments.

    This emulates what happens to a deterministically-placed cache when the
    integrator relinks the software, the RTOS moves a partition or a library
    update shifts the code: segment bases move by multiples of
    ``granularity`` bytes within a ``span``-byte window.  The shifts change
    the modulo cache layout (and hence the conflict pattern) from run to run,
    which is exactly the uncertainty the industrial high-water-mark practice
    tries to cover with an engineering margin.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if granularity <= 0 or span <= 0:
        raise ValueError("granularity and span must be positive")
    base = base or MemoryLayout()
    steps = max(1, span // granularity)
    rng = SplitMix64(master_seed)
    layouts = []
    for _ in range(count):
        layouts.append(
            base.shifted(
                code_shift=rng.next_below(steps) * granularity,
                data_shift=rng.next_below(steps) * granularity,
                stack_shift=rng.next_below(steps) * granularity,
            )
        )
    return layouts


def relocate_trace(trace: Trace, code_shift: int = 0, data_shift: int = 0) -> Trace:
    """The trace ``trace`` becomes when its segments move by the given shifts.

    Fetch addresses move by ``code_shift`` and load/store addresses by
    ``data_shift``, wrapping at 32 bits as every :class:`Trace` does.  For a
    trace built at ``MemoryLayout()`` this is exactly the trace
    :func:`build_kernel_trace` builds at ``MemoryLayout().shifted(code_shift,
    data_shift, stack_shift)``: the generators place code at ``code_base``
    and every table and state record at ``data_base``, and none touches the
    stack segment, so the stack shift moves nothing.
    """
    shifts = np.where(trace.kinds == AccessKind.FETCH, code_shift, data_shift)
    return Trace(trace.kinds, trace.addresses + shifts, name=trace.name)


#: Recognised data-access patterns for :class:`KernelSpec`.
ACCESS_PATTERNS = ("sequential", "strided", "random", "pointer_chase", "blocked")


@dataclass(frozen=True)
class KernelSpec:
    """Parametric description of a loop-dominated embedded kernel.

    Attributes
    ----------
    name:
        Kernel identifier (e.g. ``"a2time"``).
    description:
        What the original EEMBC benchmark computes and what this stand-in
        mimics.
    code_bytes:
        Static code footprint of the main loop body in bytes (4 bytes per
        instruction).
    table_bytes:
        Sizes of the read-mostly data tables the kernel indexes.
    state_bytes:
        Size of the read/write working state (accumulators, filters, stack
        frame).
    iterations:
        Number of outer-loop iterations at scale 1.0.
    loads_per_iteration / stores_per_iteration:
        Data accesses issued per outer iteration (spread over the tables and
        the state).
    pattern:
        How table elements are selected (see :data:`ACCESS_PATTERNS`).
    stride:
        Byte stride between consecutive table accesses for the ``strided``
        and ``blocked`` patterns.
    code_fraction:
        Fraction of the loop body executed each iteration (models data
        dependent branches skipping part of the body).
    input_seed:
        Seed of the *program input* randomness (table indices for the
        ``random`` pattern, pointer-chase permutation).  It is fixed per
        kernel: program inputs do not change between measurement runs.
    """

    name: str
    description: str
    code_bytes: int
    table_bytes: Sequence[int]
    state_bytes: int
    iterations: int
    loads_per_iteration: int
    stores_per_iteration: int
    pattern: str = "sequential"
    stride: int = 32
    code_fraction: float = 1.0
    input_seed: int = 0xEEC

    def __post_init__(self) -> None:
        if self.pattern not in ACCESS_PATTERNS:
            raise ValueError(
                f"{self.name}: unknown access pattern {self.pattern!r}; "
                f"expected one of {ACCESS_PATTERNS}"
            )
        if not 0.0 < self.code_fraction <= 1.0:
            raise ValueError(f"{self.name}: code_fraction must be in (0, 1]")
        if self.code_bytes < 4:
            raise ValueError(f"{self.name}: code_bytes must cover at least one instruction")

    @property
    def data_bytes(self) -> int:
        """Total data footprint (tables plus state)."""
        return sum(self.table_bytes) + self.state_bytes

    @property
    def footprint_bytes(self) -> int:
        """Total code + data footprint."""
        return self.code_bytes + self.data_bytes

    def scaled(self, scale: float) -> "KernelSpec":
        """Return a copy with the iteration count scaled by ``scale``."""
        check_scale(scale)
        return replace(self, iterations=max(1, round(self.iterations * scale)))


def check_scale(scale: float) -> None:
    """Raise ``ValueError`` unless ``scale`` is a usable iteration scale:
    finite and > 0 (NaN, infinity and non-positive values are not)."""
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be a finite number > 0, got {scale}")


def _table_index_sequence(
    spec: KernelSpec, table_size: int, count: int, rng: SplitMix64
) -> np.ndarray:
    """Byte offsets into a table of ``table_size`` bytes for ``count`` accesses.

    The ``random`` and ``pointer_chase`` patterns draw the program input
    from ``rng`` (all of a table's draws, in order, in one
    :meth:`~repro.core.prng.SplitMix64.next_below_array` pass).
    """
    if table_size <= 0:
        return np.zeros(count, dtype=np.int64)
    accesses = np.arange(count, dtype=np.int64)
    if spec.pattern == "sequential":
        return accesses * 4 % table_size
    if spec.pattern == "strided":
        return accesses * spec.stride % table_size
    if spec.pattern == "blocked":
        # Four consecutive words, then the next block.
        block = max(spec.stride, 4)
        return (accesses // 4 * block + accesses % 4 * 4) % table_size
    if spec.pattern == "random":
        words = rng.next_below_array(np.full(count, max(table_size // 4, 1)))
        return words.astype(np.int64) * 4 % table_size
    if spec.pattern == "pointer_chase":
        # A fixed pseudo-random cycle over the table's words (the classic
        # linked-list traversal): the permutation is part of the program
        # input and therefore identical in every measurement run.  The
        # Fisher-Yates swaps run in order over the table's words.
        words = max(table_size // 4, 1)
        swaps = rng.next_below_array(np.arange(words, 1, -1)).tolist()
        order = list(range(words))
        for i, j in zip(range(words - 1, 0, -1), swaps):
            order[i], order[j] = order[j], order[i]
        return np.array(order, dtype=np.int64)[accesses % words] * 4
    raise ValueError(f"unknown pattern {spec.pattern}")  # pragma: no cover


def build_kernel_trace(
    spec: KernelSpec,
    layout: Optional[MemoryLayout] = None,
    scale: float = 1.0,
) -> Trace:
    """Generate the memory-access trace of ``spec`` under ``layout``.

    The trace interleaves instruction fetches walking the loop body with the
    kernel's table and state accesses, mirroring how a compiled inner loop
    issues one data access every few instructions.

    Every iteration issues the same sequence of kinds, so the trace is an
    ``(iterations, accesses per iteration)`` matrix: the data accesses of
    each iteration (its table loads, state loads, then state stores) are
    one row of a data matrix, the fetches one row of a fetch matrix, and a
    per-iteration template places both.  One data access follows every
    ``fetch_gap``-th fetch; those that do not fit follow the last fetch.
    """
    layout = layout or MemoryLayout()
    spec = spec.scaled(scale) if scale != 1.0 else spec
    rng = SplitMix64(spec.input_seed)
    iterations = np.arange(spec.iterations, dtype=np.int64)[:, None]

    code_words = max(spec.code_bytes // 4, 1)
    executed_words = max(int(code_words * spec.code_fraction), 1)

    # Table loads: table t issues its per-iteration share of the loads at
    # consecutive offsets of its index sequence.
    data_columns: List[np.ndarray] = []
    loads_left = spec.loads_per_iteration
    num_tables = max(len(spec.table_bytes), 1)
    per_table = max(spec.loads_per_iteration // num_tables, 1) if spec.table_bytes else 0
    table_base = layout.data_base
    table_loads = 0
    for position, size in enumerate(spec.table_bytes):
        count = per_table if position < num_tables - 1 else max(loads_left, 0)
        count = min(count, loads_left) if loads_left else 0
        loads_left -= count
        offsets = _table_index_sequence(spec, size, count * spec.iterations, rng)
        data_columns.append(table_base + offsets.reshape(spec.iterations, count))
        table_loads += count
        table_base += size

    # Data accesses that are not directed at tables hit the state record.
    state_base = table_base
    state_words = max(spec.state_bytes // 4, 1)
    state_loads = max(spec.loads_per_iteration - table_loads, 0)
    slots = np.arange(state_loads, dtype=np.int64)
    data_columns.append(state_base + (iterations * 7 + slots * 3) % state_words * 4)
    slots = np.arange(spec.stores_per_iteration, dtype=np.int64)
    data_columns.append(state_base + (iterations * 5 + slots * 11) % state_words * 4)
    data = np.concatenate(data_columns, axis=1)
    n_data = data.shape[1]
    data_kinds = np.full(n_data, AccessKind.LOAD, dtype=np.uint8)
    data_kinds[n_data - spec.stores_per_iteration :] = AccessKind.STORE

    # When only a fraction of the body executes per iteration (data
    # dependent branches), rotate the executed window so the whole code
    # footprint is still exercised across iterations.
    steps = np.arange(executed_words, dtype=np.int64)
    start_word = iterations * executed_words % code_words if executed_words < code_words else 0
    fetches = layout.code_base + (start_word + steps) % code_words * 4

    # Where each fetch and data access sits within its iteration.
    total_data_per_iteration = spec.loads_per_iteration + spec.stores_per_iteration
    fetch_gap = max(executed_words // max(total_data_per_iteration, 1), 1)
    interleaved = min(n_data, executed_words // fetch_gap)
    fetch_at = steps + np.minimum(steps // fetch_gap, n_data)
    data_index = np.arange(n_data, dtype=np.int64)
    data_at = np.where(
        data_index < interleaved,
        (data_index + 1) * fetch_gap + data_index,
        executed_words + data_index,
    )

    width = executed_words + n_data
    kinds = np.empty(width, dtype=np.uint8)
    kinds[fetch_at] = AccessKind.FETCH
    kinds[data_at] = data_kinds
    addresses = np.empty((spec.iterations, width), dtype=np.int64)
    addresses[:, fetch_at] = fetches
    addresses[:, data_at] = data
    return Trace(np.tile(kinds, spec.iterations), addresses.reshape(-1), name=spec.name)

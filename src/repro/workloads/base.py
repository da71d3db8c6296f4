"""Workload infrastructure: memory layouts and the generic kernel generator.

The paper's workloads are EEMBC Automotive benchmarks and a synthetic
vector-traversal kernel running on a LEON3.  The EEMBC sources are
proprietary, so this package provides *synthetic stand-ins* that reproduce
the characteristics that matter for cache-placement experiments: the code
footprint, the data structures (look-up tables, state records, buffers), the
access pattern over them and the loop structure.  Each stand-in produces a
memory-access :class:`~repro.cpu.trace.Trace`.

A :class:`MemoryLayout` pins the base addresses of the code and data
segments.  Randomised cache designs are insensitive to it by construction
(that is the point of the paper), while for the deterministic baseline the
layout is varied across runs to emulate the "stressing conditions" of the
industrial high-water-mark practice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..core.prng import SplitMix64
from ..cpu.trace import AccessKind, Trace

__all__ = [
    "MemoryLayout",
    "KernelSpec",
    "build_kernel_trace",
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
    ``data_shift``, wrapping at 32 bits as :meth:`Trace.append` does.  For a
    trace built at ``MemoryLayout()`` this is exactly the trace
    :func:`build_kernel_trace` builds at ``MemoryLayout().shifted(code_shift,
    data_shift, stack_shift)``: the generators place code at ``code_base``
    and every table and state record at ``data_base``, and none touches the
    stack segment, so the stack shift moves nothing.
    """
    fetch = int(AccessKind.FETCH)
    addresses = [
        (address + (code_shift if kind == fetch else data_shift)) & 0xFFFFFFFF
        for kind, address in zip(trace.kinds, trace.addresses)
    ]
    return Trace(trace.kinds, addresses, name=trace.name)


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
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return replace(self, iterations=max(1, round(self.iterations * scale)))


def _table_index_sequence(
    spec: KernelSpec, table_size: int, count: int, rng: SplitMix64
) -> List[int]:
    """Byte offsets into a table of ``table_size`` bytes for ``count`` accesses."""
    if table_size <= 0:
        return [0] * count
    offsets: List[int] = []
    if spec.pattern == "sequential":
        step = 4
        position = 0
        for _ in range(count):
            offsets.append(position % table_size)
            position += step
    elif spec.pattern == "strided":
        position = 0
        for _ in range(count):
            offsets.append(position % table_size)
            position += spec.stride
    elif spec.pattern == "blocked":
        block = max(spec.stride, 4)
        position = 0
        for i in range(count):
            offsets.append((position + (i % 4) * 4) % table_size)
            if i % 4 == 3:
                position += block
    elif spec.pattern == "random":
        for _ in range(count):
            offsets.append((rng.next_below(max(table_size // 4, 1))) * 4 % table_size)
    elif spec.pattern == "pointer_chase":
        # A fixed pseudo-random cycle over the table's words (the classic
        # linked-list traversal): the permutation is part of the program
        # input and therefore identical in every measurement run.
        words = max(table_size // 4, 1)
        order = list(range(words))
        for i in range(words - 1, 0, -1):
            j = rng.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        position = 0
        for _ in range(count):
            offsets.append(order[position] * 4)
            position = (position + 1) % words
    else:  # pragma: no cover - guarded by KernelSpec validation
        raise ValueError(f"unknown pattern {spec.pattern}")
    return offsets


def build_kernel_trace(
    spec: KernelSpec,
    layout: Optional[MemoryLayout] = None,
    scale: float = 1.0,
) -> Trace:
    """Generate the memory-access trace of ``spec`` under ``layout``.

    The trace interleaves instruction fetches walking the loop body with the
    kernel's table and state accesses, mirroring how a compiled inner loop
    issues one data access every few instructions.
    """
    layout = layout or MemoryLayout()
    spec = spec.scaled(scale) if scale != 1.0 else spec
    rng = SplitMix64(spec.input_seed)
    trace = Trace(name=spec.name)

    code_words = max(spec.code_bytes // 4, 1)
    executed_words = max(int(code_words * spec.code_fraction), 1)

    # Pre-compute the per-iteration table offsets.
    tables: List[Dict[str, object]] = []
    loads_left = spec.loads_per_iteration
    num_tables = max(len(spec.table_bytes), 1)
    per_table = max(spec.loads_per_iteration // num_tables, 1) if spec.table_bytes else 0
    table_base = layout.data_base
    for position, size in enumerate(spec.table_bytes):
        count = per_table if position < num_tables - 1 else max(loads_left, 0)
        count = min(count, loads_left) if loads_left else 0
        loads_left -= count
        tables.append(
            {
                "base": table_base,
                "size": size,
                "offsets": _table_index_sequence(spec, size, count * spec.iterations, rng),
                "cursor": 0,
                "per_iteration": count,
            }
        )
        table_base += size

    state_base = table_base
    state_words = max(spec.state_bytes // 4, 1)

    # Data accesses that are not directed at tables hit the state record.
    state_loads = max(spec.loads_per_iteration - sum(t["per_iteration"] for t in tables), 0)

    total_data_per_iteration = spec.loads_per_iteration + spec.stores_per_iteration
    fetch_gap = max(executed_words // max(total_data_per_iteration, 1), 1)

    for iteration in range(spec.iterations):
        data_queue: List[tuple] = []
        for table in tables:
            per_iteration = table["per_iteration"]
            offsets = table["offsets"]
            cursor = table["cursor"]
            for _ in range(per_iteration):
                if cursor < len(offsets):
                    offset = offsets[cursor]
                else:  # pragma: no cover - defensive, offsets are pre-sized
                    offset = 0
                data_queue.append(("load", table["base"] + offset))
                cursor += 1
            table["cursor"] = cursor
        for slot in range(state_loads):
            word = (iteration * 7 + slot * 3) % state_words
            data_queue.append(("load", state_base + word * 4))
        for slot in range(spec.stores_per_iteration):
            word = (iteration * 5 + slot * 11) % state_words
            data_queue.append(("store", state_base + word * 4))

        data_cursor = 0
        # When only a fraction of the body executes per iteration (data
        # dependent branches), rotate the executed window so the whole code
        # footprint is still exercised across iterations.
        start_word = (iteration * executed_words) % code_words if executed_words < code_words else 0
        for step in range(executed_words):
            word = (start_word + step) % code_words
            trace.fetch(layout.code_base + word * 4)
            if step % fetch_gap == fetch_gap - 1 and data_cursor < len(data_queue):
                kind, address = data_queue[data_cursor]
                if kind == "load":
                    trace.load(address)
                else:
                    trace.store(address)
                data_cursor += 1
        # Drain any remaining data accesses at the end of the iteration.
        while data_cursor < len(data_queue):
            kind, address = data_queue[data_cursor]
            if kind == "load":
                trace.load(address)
            else:
                trace.store(address)
            data_cursor += 1

    return trace

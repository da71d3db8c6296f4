"""Compiled traces and per-run counters shared by every campaign engine.

MBPTA needs hundreds to thousands of end-to-end runs per benchmark and
configuration.  Every engine of the registry (:mod:`repro.engine`) replays
one :class:`CompiledTrace` — the trace with its addresses replaced by
indices into a table of unique line addresses — and reports one
:class:`FastRunResult` per seed.  The production ``numpy`` engine
(:mod:`repro.engine.numpy_engine`) and the ``reference`` oracle
(:mod:`repro.engine.reference`) share this representation, so their
results compare field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .trace import AccessKind, Trace, check_line_size

# Access-kind encodings as plain ints, the form the engines compare against.
FETCH_KIND = int(AccessKind.FETCH)
LOAD_KIND = int(AccessKind.LOAD)
STORE_KIND = int(AccessKind.STORE)

__all__ = [
    "CompiledTrace",
    "FastRunResult",
]


@dataclass(frozen=True)
class FastRunResult:
    """Counters produced by one simulated run."""

    cycles: int
    memory_accesses: int
    il1_accesses: int
    il1_misses: int
    dl1_accesses: int
    dl1_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def il1_miss_rate(self) -> float:
        return self.il1_misses / self.il1_accesses if self.il1_accesses else 0.0

    @property
    def dl1_miss_rate(self) -> float:
        return self.dl1_misses / self.dl1_accesses if self.dl1_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "memory_accesses": self.memory_accesses,
            "il1_accesses": self.il1_accesses,
            "il1_misses": self.il1_misses,
            "dl1_accesses": self.dl1_accesses,
            "dl1_misses": self.dl1_misses,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
        }


class CompiledTrace:
    """A trace pre-processed for repeated fast simulation.

    Addresses are replaced by indices into the table of unique line
    addresses, so each run only has to evaluate the (possibly expensive)
    placement hash once per unique line rather than once per access.
    Lines are numbered in order of first appearance.  ``kinds`` (the
    trace's ``uint8`` kinds), ``line_ids`` and ``unique_lines`` (both
    ``int64``) are numpy arrays, built in a few whole-array passes.
    """

    def __init__(self, trace: Trace, line_size: int = 32) -> None:
        self.name = trace.name
        self.line_size = check_line_size(line_size)
        lines = trace.addresses & ~(line_size - 1)
        # np.unique numbers lines in sorted order; renumber them by the
        # position of each line's first access.
        sorted_lines, first, inverse = np.unique(
            lines, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        self.kinds: np.ndarray = trace.kinds
        self.line_ids: np.ndarray = rank[inverse]
        self.unique_lines: np.ndarray = sorted_lines[order]

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def footprint_bytes(self) -> int:
        """Footprint at line granularity."""
        return len(self.unique_lines) * self.line_size

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
from typing import Dict, List

from .trace import AccessKind, Trace

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
    """

    def __init__(self, trace: Trace, line_size: int = 32) -> None:
        self.name = trace.name
        self.line_size = line_size
        line_mask = ~(line_size - 1) & 0xFFFFFFFF
        unique: Dict[int, int] = {}
        kinds: List[int] = []
        line_ids: List[int] = []
        for kind, address in zip(trace.kinds, trace.addresses):
            line = address & line_mask
            uid = unique.get(line)
            if uid is None:
                uid = len(unique)
                unique[line] = uid
            kinds.append(kind)
            line_ids.append(uid)
        self.kinds = kinds
        self.line_ids = line_ids
        self.unique_lines: List[int] = list(unique.keys())

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def footprint_bytes(self) -> int:
        """Footprint at line granularity."""
        return len(self.unique_lines) * self.line_size

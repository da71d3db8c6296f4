"""Memory-access traces.

A trace is the interface between the workload layer and the simulation
engines: a sequence of instruction fetches, loads and stores with 32-bit
byte addresses.  The EEMBC-like kernels and the synthetic vector benchmark
generate traces directly; the mini-ISA interpreter produces them as a side
effect of executing a program.

Traces are deliberately simple (two parallel lists) so that trace
compilation can iterate them with minimal overhead, while still offering
convenience helpers (footprints, slicing, concatenation, repetition) for the
workload generators and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["AccessKind", "MemoryAccess", "Trace"]


class AccessKind(IntEnum):
    """Type of a memory access."""

    FETCH = 0
    LOAD = 1
    STORE = 2


@dataclass(frozen=True)
class MemoryAccess:
    """One memory access: an :class:`AccessKind` plus a byte address."""

    kind: AccessKind
    address: int

    @property
    def is_instruction(self) -> bool:
        return self.kind == AccessKind.FETCH

    @property
    def is_store(self) -> bool:
        return self.kind == AccessKind.STORE


class Trace:
    """An ordered sequence of memory accesses."""

    def __init__(
        self,
        kinds: Sequence[int] | None = None,
        addresses: Sequence[int] | None = None,
        name: str = "trace",
    ) -> None:
        self.kinds: List[int] = list(kinds) if kinds is not None else []
        self.addresses: List[int] = list(addresses) if addresses is not None else []
        if len(self.kinds) != len(self.addresses):
            raise ValueError(
                f"kinds and addresses must have the same length "
                f"({len(self.kinds)} != {len(self.addresses)})"
            )
        self.name = name

    # ----------------------------------------------------------- construction

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of :class:`MemoryAccess`."""
        trace = cls(name=name)
        for access in accesses:
            trace.append(access.kind, access.address)
        return trace

    def append(self, kind: AccessKind | int, address: int) -> None:
        """Append one access."""
        self.kinds.append(int(kind))
        self.addresses.append(address & 0xFFFFFFFF)

    def fetch(self, address: int) -> None:
        """Append an instruction fetch."""
        self.append(AccessKind.FETCH, address)

    def load(self, address: int) -> None:
        """Append a data load."""
        self.append(AccessKind.LOAD, address)

    def store(self, address: int) -> None:
        """Append a data store."""
        self.append(AccessKind.STORE, address)

    def extend(self, other: "Trace") -> None:
        """Append all accesses of ``other`` to this trace."""
        self.kinds.extend(other.kinds)
        self.addresses.extend(other.addresses)

    def repeated(self, times: int, name: str | None = None) -> "Trace":
        """Return a new trace that repeats this one ``times`` times."""
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        return Trace(
            self.kinds * times,
            self.addresses * times,
            name=name or f"{self.name}x{times}",
        )

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for kind, address in zip(self.kinds, self.addresses):
            yield MemoryAccess(AccessKind(kind), address)

    def __getitem__(self, index: int) -> MemoryAccess:
        return MemoryAccess(AccessKind(self.kinds[index]), self.addresses[index])

    def counts(self) -> Dict[str, int]:
        """Number of fetches, loads and stores in the trace."""
        fetches = self.kinds.count(int(AccessKind.FETCH))
        loads = self.kinds.count(int(AccessKind.LOAD))
        stores = self.kinds.count(int(AccessKind.STORE))
        return {"fetches": fetches, "loads": loads, "stores": stores}

    def unique_lines(self, line_size: int = 32) -> List[int]:
        """Sorted unique line-aligned addresses touched by the trace."""
        if line_size <= 0:
            raise ValueError(f"line_size must be positive, got {line_size}")
        lines = {address & ~(line_size - 1) for address in self.addresses}
        return sorted(lines)

    def footprint_bytes(self, line_size: int = 32) -> int:
        """Total footprint in bytes at line granularity."""
        return len(self.unique_lines(line_size)) * line_size

    def split_by_kind(self, line_size: int = 32) -> Tuple[List[int], List[int]]:
        """Return (instruction line addresses, data line addresses)."""
        instruction_lines = set()
        data_lines = set()
        for kind, address in zip(self.kinds, self.addresses):
            line = address & ~(line_size - 1)
            if kind == AccessKind.FETCH:
                instruction_lines.add(line)
            else:
                data_lines.add(line)
        return sorted(instruction_lines), sorted(data_lines)

    def summary(self) -> Dict[str, object]:
        """Human-readable summary used by reports and examples."""
        counts = self.counts()
        return {
            "name": self.name,
            "accesses": len(self),
            **counts,
            "code_footprint_bytes": len(self.split_by_kind()[0]) * 32,
            "data_footprint_bytes": len(self.split_by_kind()[1]) * 32,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, accesses={len(self)})"

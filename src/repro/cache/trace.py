"""Memory-access traces.

A trace is the interface between the workload layer and the simulation
engines: a sequence of instruction fetches, loads and stores with 32-bit
byte addresses.  The EEMBC-like kernels and the synthetic vector benchmark
generate traces directly, and :class:`~repro.cache.fastsim.CompiledTrace`
compiles one for the engines.

Traces are deliberately simple (two parallel lists) so that trace
compilation can iterate them with minimal overhead, while still offering
footprint helpers for the workload generators and the tests.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Sequence

__all__ = ["AccessKind", "Trace"]


class AccessKind(IntEnum):
    """Type of a memory access."""

    FETCH = 0
    LOAD = 1
    STORE = 2


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

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.kinds)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, accesses={len(self)})"

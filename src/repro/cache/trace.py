"""Memory-access traces.

A trace is the interface between the workload layer and the simulation
engines: a sequence of instruction fetches, loads and stores with 32-bit
byte addresses.  The EEMBC-like kernels and the synthetic vector benchmark
generate traces directly, and :class:`~repro.cache.fastsim.CompiledTrace`
compiles one for the engines.

A trace is two parallel numpy arrays: ``kinds`` (``uint8``
:class:`AccessKind` codes) and ``addresses`` (``int64``, each below
``2**32``).  The workload generators build both in whole-array passes and
hand them to the constructor, and trace compilation reads them the same
way, so no stage of campaign set-up runs Python once per access.
:meth:`Trace.append` (and ``fetch``/``load``/``store``) still builds a
trace one access at a time, into arrays that grow by doubling.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Sequence

import numpy as np

from ..core.bits import is_power_of_two

__all__ = ["AccessKind", "Trace", "check_line_size"]


class AccessKind(IntEnum):
    """Type of a memory access."""

    FETCH = 0
    LOAD = 1
    STORE = 2


def check_line_size(line_size: int) -> int:
    """``line_size`` if it is a positive power of two, else ``ValueError``.

    Line addresses are ``address & ~(line_size - 1)``: any other line size
    would merge and split lines arbitrarily (48 B lines put 0x40 and 0x50
    in one line and 0x30 alone), and 0 would map every address to one line.
    """
    if not is_power_of_two(line_size):
        raise ValueError(f"line_size must be a positive power of two, got {line_size}")
    return line_size


class Trace:
    """An ordered sequence of memory accesses."""

    def __init__(
        self,
        kinds: Sequence[int] | np.ndarray | None = None,
        addresses: Sequence[int] | np.ndarray | None = None,
        name: str = "trace",
    ) -> None:
        kinds = np.array([] if kinds is None else kinds, dtype=np.uint8)
        addresses = np.array([] if addresses is None else addresses, dtype=np.int64)
        if kinds.shape != addresses.shape or kinds.ndim != 1:
            raise ValueError(
                f"kinds and addresses must have the same length "
                f"({kinds.size} != {addresses.size})"
            )
        addresses &= 0xFFFFFFFF
        self._kinds = kinds
        self._addresses = addresses
        self._size = kinds.size
        self.name = name

    @property
    def kinds(self) -> np.ndarray:
        """The access kinds, one :class:`AccessKind` code per access."""
        return self._kinds[: self._size]

    @property
    def addresses(self) -> np.ndarray:
        """The byte addresses, one per access, wrapped to 32 bits."""
        return self._addresses[: self._size]

    # ----------------------------------------------------------- construction

    def append(self, kind: AccessKind | int, address: int) -> None:
        """Append one access."""
        size = self._size
        if size == self._kinds.size:
            capacity = max(16, 2 * size)
            self._kinds = np.resize(self._kinds, capacity)
            self._addresses = np.resize(self._addresses, capacity)
        self._kinds[size] = int(kind)
        self._addresses[size] = address & 0xFFFFFFFF
        self._size = size + 1

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
        return self._size

    def counts(self) -> Dict[str, int]:
        """Number of fetches, loads and stores in the trace."""
        fetches, loads, stores = np.bincount(self.kinds, minlength=3)[:3].tolist()
        return {"fetches": fetches, "loads": loads, "stores": stores}

    def unique_lines(self, line_size: int = 32) -> List[int]:
        """Sorted unique line-aligned addresses touched by the trace."""
        check_line_size(line_size)
        return np.unique(self.addresses & ~(line_size - 1)).tolist()

    def footprint_bytes(self, line_size: int = 32) -> int:
        """Total footprint in bytes at line granularity."""
        return len(self.unique_lines(line_size)) * line_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, accesses={len(self)})"

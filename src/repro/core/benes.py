"""Permutation networks used by the Random Modulo placement function.

Random Modulo (Section 3.2 of the paper) permutes the *index bits* of an
address with a network of 2x2 pass/swap switches driven by a control word
derived from the upper address bits and the per-run random seed.  The crucial
property is that *every* control word realises some permutation of the wires,
hence the index mapping is a bijection on ``[0, 2**width)`` and two addresses
that map to different sets under modulo can never collide under Random
Modulo as long as they lie in the same cache segment.

Two topologies are provided:

* :class:`BenesNetwork` — the classic recursive Benes network for
  power-of-two widths.  For width 8 it has 20 switches, matching the
  "20 bits are required to drive the actual permutation" figure in the paper.
* :class:`OddEvenNetwork` — a brick-wall odd-even transposition network for
  arbitrary widths (used e.g. for the 7 index bits of a 128-set cache).

Both expose the same interface: :attr:`num_switches` control bits and an
:meth:`apply` method mapping an index value to its permuted value.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from .bits import from_bits, is_power_of_two, to_bits

__all__ = [
    "PermutationNetwork",
    "BenesNetwork",
    "OddEvenNetwork",
    "make_permutation_network",
]


class PermutationNetwork(ABC):
    """A network of 2x2 pass/swap switches acting on ``width`` wires."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        #: Each switch is a pair of wire positions it may swap; the i-th
        #: control bit drives the i-th switch (1 = swap, 0 = pass).
        self.switches: List[Tuple[int, int]] = self._build()

    @property
    def num_switches(self) -> int:
        """Number of switches, i.e. number of control bits required."""
        return len(self.switches)

    @abstractmethod
    def _build(self) -> List[Tuple[int, int]]:
        """Return the ordered list of (wire_a, wire_b) switch positions."""

    def permute_bits(self, bits: Sequence[int], controls: int) -> List[int]:
        """Route a bit vector through the network.

        ``bits`` is given least-significant wire first; ``controls`` packs one
        bit per switch (LSB drives the first switch).
        """
        if len(bits) != self.width:
            raise ValueError(
                f"expected {self.width} bits, got {len(bits)}"
            )
        wires = list(bits)
        for position, (a, b) in enumerate(self.switches):
            if (controls >> position) & 1:
                wires[a], wires[b] = wires[b], wires[a]
        return wires

    def apply(self, value: int, controls: int) -> int:
        """Permute the bits of ``value`` (a ``width``-bit integer)."""
        return from_bits(self.permute_bits(to_bits(value, self.width), controls))

    def wire_permutation(self, controls: int) -> List[int]:
        """Return the wire permutation realised by ``controls``.

        Element ``i`` of the result is the input wire that drives output
        wire ``i``.
        """
        return self.permute_bits(list(range(self.width)), controls)


class BenesNetwork(PermutationNetwork):
    """Recursive Benes network for a power-of-two number of wires.

    A Benes network over ``n`` wires consists of an input column of ``n/2``
    switches, two recursive sub-networks over ``n/2`` wires each, and an
    output column of ``n/2`` switches.  It is rearrangeably non-blocking: it
    can realise every permutation of its inputs, and any setting of its
    control bits realises *some* permutation.
    """

    def __init__(self, width: int) -> None:
        if not is_power_of_two(width):
            raise ValueError(
                f"BenesNetwork requires a power-of-two width, got {width}; "
                "use OddEvenNetwork or make_permutation_network() instead"
            )
        super().__init__(width)

    def _build(self) -> List[Tuple[int, int]]:
        return self._build_recursive(list(range(self.width)))

    def _build_recursive(self, wires: List[int]) -> List[Tuple[int, int]]:
        n = len(wires)
        if n == 1:
            return []
        if n == 2:
            return [(wires[0], wires[1])]
        half = n // 2
        switches: List[Tuple[int, int]] = []
        # Input column: pair wire i with wire i + n/2.
        for i in range(half):
            switches.append((wires[i], wires[i + half]))
        # Two recursive sub-networks on the top and bottom halves.
        switches.extend(self._build_recursive(wires[:half]))
        switches.extend(self._build_recursive(wires[half:]))
        # Output column.
        for i in range(half):
            switches.append((wires[i], wires[i + half]))
        return switches


class OddEvenNetwork(PermutationNetwork):
    """Brick-wall odd-even transposition network for arbitrary widths.

    ``width`` alternating columns of adjacent-wire switches are generated
    (the structure of an odd-even transposition sorting network), which is
    sufficient to realise every permutation of the wires while keeping every
    switch a simple 2x2 pass/swap element, exactly like the Benes case.
    """

    def __init__(self, width: int, columns: int | None = None) -> None:
        self.columns = columns if columns is not None else max(width, 1)
        if self.columns < 1:
            raise ValueError(f"columns must be >= 1, got {columns}")
        super().__init__(width)

    def _build(self) -> List[Tuple[int, int]]:
        switches: List[Tuple[int, int]] = []
        for column in range(self.columns):
            start = column % 2
            for low in range(start, self.width - 1, 2):
                switches.append((low, low + 1))
        return switches


def make_permutation_network(width: int) -> PermutationNetwork:
    """Return the preferred network for ``width`` index bits.

    Power-of-two widths get the Benes topology described in the paper;
    other widths fall back to the odd-even brick-wall network, which offers
    the same any-control-word-is-a-permutation guarantee.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if is_power_of_two(width) and width >= 2:
        return BenesNetwork(width)
    return OddEvenNetwork(width)

"""Bit-level helpers shared by placement policies and hardware models.

All values are treated as unsigned integers of an explicit width.  The
helpers here mirror what the hardware of the paper does with wires: rotates,
XOR folding, slicing a word into bit vectors and re-assembling them.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = [
    "mask",
    "is_power_of_two",
    "ceil_log2",
    "rotate_left",
    "rotate_right",
    "fold_xor",
    "to_bits",
    "from_bits",
    "parity",
]


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones (``width`` may be zero)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ceil_log2(value: int) -> int:
    """Smallest ``k`` such that ``2**k >= value`` (``value`` must be >= 1)."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return (value - 1).bit_length()


def rotate_left(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` left by ``amount`` positions within ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    value &= mask(width)
    amount %= width
    if amount == 0:
        return value
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def rotate_right(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` right by ``amount`` positions within ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return rotate_left(value, width - (amount % width), width)


def fold_xor(value: int, in_width: int, out_width: int) -> int:
    """XOR-fold an ``in_width``-bit value down to ``out_width`` bits.

    The value is split into ``out_width``-bit chunks starting from the least
    significant bit and the chunks are XORed together.  This is how Random
    Modulo compresses the upper address bits onto its switch control word.
    """
    if out_width <= 0:
        raise ValueError(f"out_width must be positive, got {out_width}")
    value &= mask(in_width)
    folded = 0
    while value:
        folded ^= value & mask(out_width)
        value >>= out_width
    return folded


def to_bits(value: int, width: int) -> List[int]:
    """Return ``width`` bits of ``value``, least-significant bit first."""
    value &= mask(width)
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`to_bits` (least-significant bit first)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r} at position {i}")
        value |= bit << i
    return value


def parity(value: int) -> int:
    """Return the XOR of all bits of ``value`` (0 or 1)."""
    if value < 0:
        raise ValueError("parity is defined for non-negative values only")
    return bin(value).count("1") & 1

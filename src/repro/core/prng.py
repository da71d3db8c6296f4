"""Pseudo-random number generators used by the randomised cache designs.

The paper relies on the IEC-61508 SIL3-compliant hardware PRNG of Agirre et
al. (DSD 2015), which combines several maximal-length linear-feedback shift
registers (LFSRs).  The exact RTL is not public, so :class:`MultiLfsrPrng`
implements the documented structure: a small set of Galois LFSRs with
co-prime periods whose outputs are XORed together.  It is cheap to realise in
hardware (a handful of flip-flops and XOR gates), has a very long period and
passes the statistical requirements MBPTA places on the seed stream.

:class:`SplitMix64` is a software reference generator used to derive
independent per-run seeds from a single campaign master seed, so every
experiment in the repository is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .bits import mask

__all__ = [
    "GaloisLfsr",
    "MultiLfsrPrng",
    "SplitMix64",
    "SPLITMIX64_GAMMA",
    "SPLITMIX64_MIX1",
    "SPLITMIX64_MIX2",
    "splitmix64_next_array",
    "derive_run_seeds",
]

#: SplitMix64 constants (Steele et al.), shared between the scalar
#: :class:`SplitMix64` and the vectorized :func:`splitmix64_next_array` so
#: that both produce bit-identical streams.
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX64_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX64_MIX2 = 0x94D049BB133111EB
_GAMMA = np.uint64(SPLITMIX64_GAMMA)
_MIX1 = np.uint64(SPLITMIX64_MIX1)
_MIX2 = np.uint64(SPLITMIX64_MIX2)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)


#: Feedback polynomials (taps given as a bit mask, LSB = x^1 term) for
#: maximal-length Galois LFSRs.  Widths are chosen pairwise co-prime so the
#: combined period of :class:`MultiLfsrPrng` is the product of the
#: individual periods (~2^131).
_MAXIMAL_TAPS = {
    31: 0x48000000,            # x^31 + x^28 + 1
    41: 0x120_0000_0000,       # x^41 + x^38 + 1
    43: 0x630_0000_0000,       # x^43 + x^42 + x^38 + x^37 + 1
    47: 0x4200_0000_0000,      # x^47 + x^42 + 1
    53: 0x18_0030_0000_0000,   # x^53 + x^52 + x^38 + x^37 + 1
}


class GaloisLfsr:
    """A Galois linear-feedback shift register of a given width.

    The register shifts right; when the bit shifted out is one, the tap mask
    is XORed into the state.  A zero state is illegal (the LFSR would lock
    up) and is silently replaced by the all-ones state, exactly as a hardware
    implementation with a seed-sanitising OR gate would do.
    """

    def __init__(self, width: int, taps: int, seed: int = 1) -> None:
        if width < 2:
            raise ValueError(f"LFSR width must be >= 2, got {width}")
        if taps == 0:
            raise ValueError("taps mask must be non-zero")
        self.width = width
        self.taps = taps & mask(width)
        self.state = 0
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Load a new state; an all-zero seed is mapped to all ones."""
        self.state = seed & mask(self.width)
        if self.state == 0:
            self.state = mask(self.width)

    def next_bit(self) -> int:
        """Advance one step and return the output bit."""
        out = self.state & 1
        self.state >>= 1
        if out:
            self.state ^= self.taps
        return out

    def next_bits(self, count: int) -> int:
        """Return ``count`` successive output bits packed LSB first."""
        value = 0
        for i in range(count):
            value |= self.next_bit() << i
        return value


class MultiLfsrPrng:
    """Hardware-style PRNG combining several maximal-length LFSRs.

    This models the IEC-61508 SIL3 generator used by the paper: each output
    bit is the XOR of one bit from every constituent LFSR.  The default
    configuration uses three registers of widths 31, 41 and 47.
    """

    DEFAULT_WIDTHS = (31, 41, 47)

    def __init__(self, seed: int = 0x2357_1113_1719, widths: Sequence[int] | None = None) -> None:
        widths = tuple(widths) if widths is not None else self.DEFAULT_WIDTHS
        for width in widths:
            if width not in _MAXIMAL_TAPS:
                raise ValueError(
                    f"no feedback polynomial registered for width {width}; "
                    f"available widths: {sorted(_MAXIMAL_TAPS)}"
                )
        self.widths = widths
        self._lfsrs: List[GaloisLfsr] = [
            GaloisLfsr(width, _MAXIMAL_TAPS[width]) for width in widths
        ]
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Spread ``seed`` over the constituent registers.

        A SplitMix64 expansion is used so that nearby seeds produce unrelated
        register states — in hardware this corresponds to loading the seed
        register through a scrambling network.
        """
        expander = SplitMix64(seed)
        for lfsr in self._lfsrs:
            lfsr.reseed(expander.next_uint64())

    def next_bit(self) -> int:
        """Return the XOR of the next bit of every register."""
        bit = 0
        for lfsr in self._lfsrs:
            bit ^= lfsr.next_bit()
        return bit

    def next_bits(self, count: int) -> int:
        """Return ``count`` output bits packed LSB first."""
        value = 0
        for i in range(count):
            value |= self.next_bit() << i
        return value

    def next_uint32(self) -> int:
        """Return a 32-bit pseudo-random value."""
        return self.next_bits(32)

    def next_below(self, bound: int) -> int:
        """Return a value uniform in ``[0, bound)`` by rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = (bound - 1).bit_length() or 1
        while True:
            value = self.next_bits(bits)
            if value < bound:
                return value


@dataclass
class SplitMix64:
    """The SplitMix64 generator (Steele et al.), used as a seed expander.

    It is deterministic, stateless apart from a 64-bit counter, and is the
    standard way of deriving many independent seeds from one master seed.
    """

    state: int = 0

    def __post_init__(self) -> None:
        self.state &= mask(64)

    def next_uint64(self) -> int:
        self.state = (self.state + SPLITMIX64_GAMMA) & mask(64)
        z = self.state
        z = ((z ^ (z >> 30)) * SPLITMIX64_MIX1) & mask(64)
        z = ((z ^ (z >> 27)) * SPLITMIX64_MIX2) & mask(64)
        return (z ^ (z >> 31)) & mask(64)

    def next_uint32(self) -> int:
        return self.next_uint64() & mask(32)

    def next_below(self, bound: int) -> int:
        """Return a value uniform in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # 64 bits of state against small bounds: modulo bias is negligible,
        # but use rejection sampling anyway to keep the distribution exact.
        limit = (mask(64) + 1) - ((mask(64) + 1) % bound)
        while True:
            value = self.next_uint64()
            if value < limit:
                return value % bound


def splitmix64_next_array(states: np.ndarray) -> np.ndarray:
    """Advance a ``uint64`` array of SplitMix64 states in place; return the
    outputs.

    Element ``i`` of the result is exactly what
    ``SplitMix64(previous_state_i).next_uint64()`` would have produced, so
    vectorized consumers (the placement maps and the numpy engine's victim
    streams) stay bit-exact with the scalar generator.  The mixing runs in
    place on ``np.uint64`` constants: the victim-draw hot path calls this
    hundreds of times per batch.
    """
    states += _GAMMA
    z = states >> _SHIFT_30
    z ^= states
    z *= _MIX1
    out = z >> _SHIFT_27
    out ^= z
    out *= _MIX2
    z = out >> _SHIFT_31
    z ^= out
    return z


def derive_run_seeds(master_seed: int, count: int) -> List[int]:
    """Derive ``count`` independent 64-bit per-run seeds from a master seed.

    The MBPTA protocol requires one fresh placement seed per program run;
    deriving them deterministically from the campaign master seed keeps every
    experiment reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    expander = SplitMix64(master_seed)
    return [expander.next_uint64() for _ in range(count)]

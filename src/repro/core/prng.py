"""Pseudo-random number generators used by the randomised cache designs.

The paper's caches draw their per-run placement seeds and their random
replacement victims from the IEC-61508 SIL3 hardware PRNG of Agirre et al.
(DSD 2015).  Its RTL is not public, and MBPTA needs only that the draws are
independent across runs, so every randomised policy here draws from
:class:`SplitMix64` (Steele et al.): the scalar generator of the reference
model and its vectorized twin :func:`splitmix64_next_array`, which the numpy
engine uses to stay bit-exact with it.  :func:`derive_run_seeds` expands one
campaign master seed into the per-run seeds, so every experiment in the
repository is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .bits import mask

__all__ = [
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

    def next_below_array(self, bounds: np.ndarray) -> np.ndarray:
        """``next_below(b)`` for each ``b`` of ``bounds`` in order, as one
        ``uint64`` array, leaving the generator where those calls would.

        SplitMix64 is counter-based, so the ``k``-th draw is one mix of
        ``state + (k + 1) * gamma`` and a run of draws is one array pass.
        A draw that lands in its bound's rejection band (probability below
        ``b / 2**64``) falls back to :meth:`next_below`, which redraws it,
        and the pass resumes after it.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.size and not bounds.min():
            raise ValueError("bound must be positive, got 0")
        out = np.empty(bounds.size, dtype=np.uint64)
        start = 0
        while start < bounds.size:
            todo = bounds[start:]
            counters = np.arange(todo.size, dtype=np.uint64)
            counters *= _GAMMA
            counters += np.uint64(self.state)
            values = splitmix64_next_array(counters)
            # 2**64 % b, computed as (2**64 - b) % b in wrapping uint64; the
            # accepted draws are those below 2**64 minus it.
            band = (np.uint64(0) - todo) % todo
            rejected = (band != 0) & (values >= np.uint64(0) - band)
            accepted = int(rejected.argmax()) if rejected.any() else todo.size
            out[start : start + accepted] = values[:accepted] % todo[:accepted]
            self.state = (self.state + accepted * SPLITMIX64_GAMMA) & mask(64)
            start += accepted
            if start < bounds.size:
                out[start] = self.next_below(int(bounds[start]))
                start += 1
        return out


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

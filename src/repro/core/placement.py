"""Cache placement (indexing) policies.

This module contains the paper's contribution and its comparison points:

* :class:`ModuloPlacement` — the conventional deterministic placement used by
  virtually all processors: the index is the low-order line-address bits.
* :class:`DeterministicXorPlacement` — an XOR-hash placement in the style of
  González et al. (ICS 1997): still deterministic, included as the
  related-work baseline the paper discusses in Section 5.
* :class:`HashRandomPlacement` (hRP) — the MBPTA-compliant parametric hash of
  Kosmidis et al. (DATE 2013), Figure 2 of the paper: rotate blocks over the
  upper address bits combined through an XOR tree with the random seed.
* :class:`RandomModuloPlacement` (RM) — the paper's proposal, Figure 3: the
  modulo index bits are routed through a permutation network whose control
  word is derived from the upper address bits XORed with the random seed.

All policies share the :class:`PlacementPolicy` interface used by the cache
model: they map a 32-bit byte address to a set index and a tag, can be
reseeded between runs, and report whether the tag array must also store the
index bits (needed when the placement is not segment-preserving).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .benes import PermutationNetwork, make_permutation_network
from .bits import bit_slice, ceil_log2, fold_xor, is_power_of_two, mask, rotate_left
from .prng import SplitMix64, splitmix64_next_array

__all__ = [
    "PlacementGeometry",
    "PlacementPolicy",
    "ModuloPlacement",
    "DeterministicXorPlacement",
    "HashRandomPlacement",
    "RandomModuloPlacement",
    "make_placement",
    "placement_is_randomized",
    "PLACEMENT_CLASSES",
    "PLACEMENT_NAMES",
]


@dataclass(frozen=True)
class PlacementGeometry:
    """Geometry a placement policy operates on.

    Attributes
    ----------
    num_sets:
        Number of cache sets (must be a power of two).
    line_size:
        Cache line size in bytes (must be a power of two).
    address_bits:
        Width of physical addresses (32 in the paper's LEON3).
    """

    num_sets: int
    line_size: int
    address_bits: int = 32

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.address_bits < self.offset_bits + self.index_bits:
            raise ValueError(
                "address_bits too small for the requested geometry: "
                f"{self.address_bits} < {self.offset_bits + self.index_bits}"
            )

    @property
    def offset_bits(self) -> int:
        """Number of byte-offset bits within a line."""
        return ceil_log2(self.line_size)

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return ceil_log2(self.num_sets)

    @property
    def upper_bits(self) -> int:
        """Number of address bits above offset and index (the modulo tag)."""
        return self.address_bits - self.offset_bits - self.index_bits

    @property
    def segment_size(self) -> int:
        """Cache-segment (way) size in bytes: ``num_sets * line_size``."""
        return self.num_sets * self.line_size

    def line_address(self, address: int) -> int:
        """Drop the byte offset of ``address``."""
        return (address & mask(self.address_bits)) >> self.offset_bits

    def modulo_index(self, address: int) -> int:
        """The conventional modulo set index of ``address``."""
        return self.line_address(address) & mask(self.index_bits)

    def segment_of(self, address: int) -> int:
        """The cache segment (way-aligned region) ``address`` belongs to."""
        return (address & mask(self.address_bits)) // self.segment_size


class PlacementPolicy(ABC):
    """Maps addresses to cache sets, possibly under a per-run random seed."""

    #: Short machine-readable policy name (used in reports and factories).
    name: str = "abstract"
    #: True if the policy's set index changes across seeds.
    randomized: bool = False
    #: Fewest sets the policy can map.
    min_sets: int = 1

    def __init__(self, geometry: PlacementGeometry) -> None:
        self.geometry = geometry

    @abstractmethod
    def set_index(self, address: int) -> int:
        """Return the set index of ``address`` under the current seed."""

    def reseed(self, seed: int) -> None:
        """Install a new random seed (no-op for deterministic policies)."""

    @property
    def needs_index_in_tag(self) -> bool:
        """Whether the tag array must additionally store the index bits.

        With modulo and Random Modulo the set index of a hit can be
        reconstructed from the set being probed (segment preservation), so
        the stored tag can exclude the index bits.  hRP can map any two
        addresses to the same set, hence it must store the index bits too
        (Section 3.1 of the paper).
        """
        return False

    def tag(self, address: int) -> int:
        """Return the tag stored/compared for ``address``.

        The tag always identifies the line uniquely *given the set it is
        stored in*; policies that need the index in the tag simply use the
        full line address.
        """
        if self.needs_index_in_tag:
            return self.geometry.line_address(address)
        return self.geometry.line_address(address) >> self.geometry.index_bits

    def set_indices(self, addresses: Sequence[int]) -> List[int]:
        """Vectorised helper: map many addresses under the current seed."""
        index = self.set_index
        return [index(address) for address in addresses]

    # ------------------------------------------------------------ numpy hooks
    #
    # The numpy campaign engine (repro.engine.numpy_engine) evaluates one
    # placement map per (seed, cache) pair; these hooks let each policy do
    # that as array arithmetic instead of a Python loop per line.  They are
    # bit-exact with set_index() — the engine equivalence tests replay both
    # paths.  numpy is imported lazily so repro.core stays importable
    # without it.

    def _line_addresses_array(self, addresses):
        """Vector counterpart of ``geometry.line_address`` (uint64 in/out)."""
        geometry = self.geometry
        return (addresses & mask(geometry.address_bits)) >> geometry.offset_bits

    def set_index_array(self, addresses):
        """Map a ``numpy`` uint64 array of byte addresses to set indices.

        The base implementation loops over :meth:`set_index`; policies with a
        closed-form mapping override it with genuine array arithmetic.
        Returns an int64 array of the same length.
        """
        import numpy as np

        index = self.set_index
        return np.array([index(int(address)) for address in addresses], dtype=np.int64)

    def set_index_matrix(self, addresses, seeds):
        """Per-seed placement maps as one ``(len(addresses), len(seeds))`` array.

        Column ``i`` is bit-identical to ``reseed(seeds[i])`` followed by
        :meth:`set_index_array`.  The base implementation does exactly that
        loop (leaving the policy reseeded to the last seed); the randomized
        policies override it with cross-seed array arithmetic, which is where
        the batch engines get their per-lane maps without a Python loop over
        seeds.
        """
        import numpy as np

        matrix = np.empty((len(addresses), len(seeds)), dtype=np.int64)
        for column, seed in enumerate(seeds):
            self.reseed(int(seed))
            matrix[:, column] = self.set_index_array(addresses)
        return matrix

    def describe(self) -> Dict[str, object]:
        """Structured description used by reports and experiment logs."""
        return {
            "policy": self.name,
            "randomized": self.randomized,
            "num_sets": self.geometry.num_sets,
            "line_size": self.geometry.line_size,
            "needs_index_in_tag": self.needs_index_in_tag,
        }


def _fold_xor_array(values, in_width: int, out_width: int):
    """Vector counterpart of :func:`repro.core.bits.fold_xor`.

    ``values`` is an unsigned integer array; callers must guarantee
    ``in_width <= 64`` and ``0 < out_width < 64`` (the scalar helper has no
    such limit, so wider geometries fall back to the per-element path).
    """
    value = values & mask(in_width)
    folded = values & 0
    for _ in range(0, max(in_width, 1), out_width):
        folded = folded ^ (value & mask(out_width))
        value = value >> out_width
    return folded


def _popcount64_array(values):
    """Per-element popcount of a uint64 array (SWAR fallback for numpy < 2)."""
    import numpy as np

    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(values).astype(np.uint64)
    x = values - ((values >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (x * 0x0101010101010101) >> 56


class ModuloPlacement(PlacementPolicy):
    """Conventional modulo placement: index = low-order line-address bits."""

    name = "modulo"
    randomized = False

    def set_index(self, address: int) -> int:
        return self.geometry.modulo_index(address)

    def set_index_array(self, addresses):
        lines = self._line_addresses_array(addresses)
        return (lines & mask(self.geometry.index_bits)).astype("int64")


class DeterministicXorPlacement(PlacementPolicy):
    """Deterministic XOR-hash placement (González et al. style).

    The set index is the modulo index XORed with a fold of the upper address
    bits.  It spreads conflicting addresses compared to plain modulo but is
    fully deterministic: a pathological input set collides systematically in
    every run, which is why it is not MBPTA-compliant (Section 5).
    """

    name = "xor"
    randomized = False
    min_sets = 2  # the upper bits fold into at least one index bit

    def set_index(self, address: int) -> int:
        geometry = self.geometry
        upper = self.geometry.line_address(address) >> geometry.index_bits
        return geometry.modulo_index(address) ^ fold_xor(
            upper, geometry.upper_bits, geometry.index_bits
        )

    def set_index_array(self, addresses):
        geometry = self.geometry
        if geometry.upper_bits > 64 or not 0 < geometry.index_bits < 64:
            return super().set_index_array(addresses)
        lines = self._line_addresses_array(addresses)
        modulo = lines & mask(geometry.index_bits)
        folded = _fold_xor_array(
            lines >> geometry.index_bits, geometry.upper_bits, geometry.index_bits
        )
        return (modulo ^ folded).astype("int64")


class HashRandomPlacement(PlacementPolicy):
    """Hash-based random placement (hRP), Figure 2 of the paper.

    hRP computes the set index with a *parametric hash* of all line-address
    bits and the per-run random seed (rotate blocks followed by an XOR
    cascade in the hardware of Figure 2).  Functionally, the defining
    property stated in Section 3.1 is that every address is mapped to every
    set with homogeneous probability ``1/S`` and that the mapping is redrawn
    whenever the seed changes.

    The model here realises that property exactly with a seeded random
    linear hash over GF(2): the index is ``H . a  xor  b`` where ``a`` is
    the line address (as a bit vector), ``H`` a random ``index_bits x
    hash_width`` binary matrix and ``b`` a random offset, both derived from
    the seed.  The rotate/XOR hardware of the paper is one particular
    low-cost member of this family; its area/delay is modelled separately in
    :mod:`repro.hardware.modules`.

    Because two addresses of the same segment may land in the same set, the
    tag array must store the index bits as well (``needs_index_in_tag``).
    """

    name = "hrp"
    randomized = True

    def __init__(self, geometry: PlacementGeometry, seed: int = 0) -> None:
        super().__init__(geometry)
        self._hash_width = geometry.address_bits - geometry.offset_bits
        self._row_masks: List[int] = [0] * geometry.index_bits
        self._offset = 0
        self.reseed(seed)

    @property
    def needs_index_in_tag(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        """Draw a fresh hash matrix and offset from ``seed``.

        The seed register (RII in Figure 2) is refreshed once per run by the
        PRNG of Agirre et al.; expanding it with SplitMix64 plays the same
        role here.  Rows are re-drawn if they come out zero so that no index
        bit becomes constant (the hardware hash never drops an index bit
        either).
        """
        expander = SplitMix64(seed)
        rows: List[int] = []
        for _ in range(self.geometry.index_bits):
            row = 0
            while row == 0:
                row = (
                    expander.next_uint64()
                    | (expander.next_uint64() << 64)
                ) & mask(self._hash_width)
            rows.append(row)
        self._row_masks = rows
        self._offset = expander.next_uint64() & mask(self.geometry.index_bits)

    def set_index(self, address: int) -> int:
        line = self.geometry.line_address(address)
        index = self._offset
        for bit, row in enumerate(self._row_masks):
            index ^= ((row & line).bit_count() & 1) << bit
        return index

    def set_index_array(self, addresses):
        import numpy as np

        if self._hash_width > 64:
            return super().set_index_array(addresses)
        lines = self._line_addresses_array(addresses)
        index = np.full(lines.shape, self._offset, dtype=np.uint64)
        for bit, row in enumerate(self._row_masks):
            index ^= (_popcount64_array(lines & row) & 1) << bit
        return index.astype(np.int64)

    def set_index_matrix(self, addresses, seeds):
        import numpy as np

        if self._hash_width > 64:
            return super().set_index_matrix(addresses, seeds)
        geometry = self.geometry
        hash_mask = mask(self._hash_width)
        states = np.array([seed & mask(64) for seed in seeds], dtype=np.uint64)
        # Draw every seed's hash matrix together.  The scalar reseed consumes
        # two SplitMix64 outputs per row (the row is assembled from a
        # 128-bit draw) and re-draws zero rows, so the vector path advances
        # the per-seed streams identically: two draws per row, then extra
        # pairs only for the seeds whose row came out zero.
        rows = np.empty((geometry.index_bits, len(seeds)), dtype=np.uint64)
        for bit in range(geometry.index_bits):
            low = splitmix64_next_array(states)
            splitmix64_next_array(states)  # high half, masked away (width <= 64)
            row = low & hash_mask
            zero = np.nonzero(row == 0)[0]
            while zero.size:
                sub_states = states[zero]
                low = splitmix64_next_array(sub_states)
                splitmix64_next_array(sub_states)
                states[zero] = sub_states
                row[zero] = low & hash_mask
                zero = zero[row[zero] == 0]
            rows[bit] = row
        offsets = splitmix64_next_array(states) & np.uint64(mask(geometry.index_bits))
        lines = self._line_addresses_array(addresses)
        # The row-parity accumulation is pure memory traffic: run it on the
        # narrowest widths that hold the data (32-bit rows when the hash and
        # every line fit, 16-bit index accumulator up to 16 index bits).
        if self._hash_width <= 32 and (not lines.size or int(lines.max()) < 1 << 32):
            lines = lines.astype(np.uint32)
            rows = rows.astype(np.uint32)
        acc_dtype = np.uint16 if geometry.index_bits <= 16 else np.uint64
        index = np.empty((len(lines), len(seeds)), dtype=acc_dtype)
        index[:] = offsets.astype(acc_dtype)[None, :]
        bitwise_count = getattr(np, "bitwise_count", None)
        for bit in range(geometry.index_bits):
            masked = lines[:, None] & rows[bit][None, :]
            if bitwise_count is not None:
                parity = (bitwise_count(masked) & np.uint8(1)).astype(acc_dtype)
            else:
                parity = (_popcount64_array(masked) & 1).astype(acc_dtype)
            index ^= parity << bit
        return index.astype(np.int64)


class RandomModuloPlacement(PlacementPolicy):
    """Random Modulo (RM) placement, Figure 3 of the paper.

    The modulo index bits are routed through a permutation network of 2x2
    pass/swap switches.  The control word of the network is obtained by
    combining the upper address bits with the per-run random seed (the paper
    concatenates the 19/20 upper bits with the top seed bit and XORs them with
    the next seed bits), so:

    * within one cache segment the upper bits are constant, hence the
      permutation is constant, hence the index mapping is a bijection —
      two addresses that do not collide under modulo cannot collide under RM;
    * across segments and across runs the permutation changes randomly, which
      breaks the dependence between the memory layout chosen by the compiler
      or RTOS and the cache layout, as MBPTA requires.
    """

    name = "rm"
    randomized = True
    min_sets = 4  # two index bits: the narrowest network with a switch

    def __init__(
        self,
        geometry: PlacementGeometry,
        seed: int = 0,
        network: PermutationNetwork | None = None,
    ) -> None:
        super().__init__(geometry)
        self.network = network or make_permutation_network(geometry.index_bits)
        if self.network.width != geometry.index_bits:
            raise ValueError(
                f"permutation network width {self.network.width} does not match "
                f"index width {geometry.index_bits}"
            )
        self._seed_controls = 0
        self._seed_upper = 0
        self._control_cache: Dict[int, int] = {}
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        n_controls = self.network.num_switches
        expander = SplitMix64(seed)
        raw = expander.next_uint64() | (expander.next_uint64() << 64)
        # The low control-word-sized slice of the seed is XORed with the
        # upper address bits; one extra seed bit is concatenated above them,
        # mirroring the 19-address-bit + 1-seed-bit construction of the paper.
        self._seed_controls = raw & mask(n_controls)
        self._seed_upper = (raw >> n_controls) & mask(n_controls)
        self._control_cache.clear()

    def _controls_for(self, upper: int) -> int:
        controls = self._control_cache.get(upper)
        if controls is None:
            n_controls = self.network.num_switches
            upper_field = fold_xor(upper, self.geometry.upper_bits, n_controls)
            spread = self.geometry.upper_bits
            if spread < n_controls:
                # Pad the upper bits with seed bits, as the paper concatenates
                # the uppermost seed bit(s) above the 19 upper address bits.
                upper_field |= (self._seed_upper << spread) & mask(n_controls)
            controls = (upper_field ^ self._seed_controls) & mask(n_controls)
            self._control_cache[upper] = controls
        return controls

    def set_index(self, address: int) -> int:
        geometry = self.geometry
        modulo_index = geometry.modulo_index(address)
        upper = geometry.line_address(address) >> geometry.index_bits
        return self.network.apply(modulo_index, self._controls_for(upper))

    def set_index_array(self, addresses):
        import numpy as np

        geometry = self.geometry
        n_controls = self.network.num_switches
        if not 0 < n_controls < 64 or geometry.upper_bits > 64:
            return super().set_index_array(addresses)
        lines = self._line_addresses_array(addresses)
        uppers = lines >> geometry.index_bits
        controls = _fold_xor_array(uppers, geometry.upper_bits, n_controls)
        spread = geometry.upper_bits
        if spread < n_controls:
            controls = controls | ((self._seed_upper << spread) & mask(n_controls))
        controls = (controls ^ self._seed_controls) & mask(n_controls)
        # Route every modulo index through the switch column sequence; each
        # switch conditionally swaps two bit positions of the index.
        value = (lines & mask(geometry.index_bits)).astype(np.uint64)
        for position, (wire_a, wire_b) in enumerate(self.network.switches):
            swap = (controls >> position) & 1
            moved = (((value >> wire_a) ^ (value >> wire_b)) & 1) & swap
            value ^= (moved << wire_a) | (moved << wire_b)
        return value.astype(np.int64)

    def set_index_matrix(self, addresses, seeds):
        import numpy as np

        geometry = self.geometry
        n_controls = self.network.num_switches
        if not 0 < n_controls < 64 or geometry.upper_bits > 64:
            return super().set_index_matrix(addresses, seeds)
        control_mask = np.uint64(mask(n_controls))
        states = np.array([seed & mask(64) for seed in seeds], dtype=np.uint64)
        # The scalar reseed assembles a 128-bit draw from two SplitMix64
        # outputs; with n_controls < 64 the control slice lives in the low
        # word and the upper-pad slice straddles the word boundary.
        low = splitmix64_next_array(states)
        high = splitmix64_next_array(states)
        seed_controls = low & control_mask
        seed_uppers = ((low >> np.uint64(n_controls)) | (high << np.uint64(64 - n_controls))) & control_mask
        lines = self._line_addresses_array(addresses)
        uppers = lines >> geometry.index_bits
        # Control words depend on the line only through its upper bits, and a
        # trace spans few distinct segments: compute the (upper, seed) control
        # matrix over the unique uppers, pre-slice the per-switch swap bits,
        # and run the switch column on the narrowest dtype holding the index.
        unique_uppers, inverse = np.unique(uppers, return_inverse=True)
        base_controls = _fold_xor_array(unique_uppers, geometry.upper_bits, n_controls)
        controls = np.broadcast_to(
            base_controls[:, None], (len(unique_uppers), len(seeds))
        )
        spread = geometry.upper_bits
        if spread < n_controls:
            controls = controls | (((seed_uppers << spread) & control_mask)[None, :])
        controls = (controls ^ seed_controls[None, :]) & control_mask
        if geometry.index_bits <= 8:
            dtype = np.uint8
        elif geometry.index_bits <= 16:
            dtype = np.uint16
        else:
            dtype = np.uint64
        swaps = [
            ((controls >> np.uint64(position)) & np.uint64(1)).astype(dtype)
            for position in range(n_controls)
        ]
        value = np.empty((len(lines), len(seeds)), dtype=dtype)
        value[:] = (lines & mask(geometry.index_bits)).astype(dtype)[:, None]
        for position, (wire_a, wire_b) in enumerate(self.network.switches):
            swap = swaps[position][inverse]
            moved = (((value >> wire_a) ^ (value >> wire_b)) & 1) & swap
            value ^= (moved << wire_a) | (moved << wire_b)
        return value.astype(np.int64)


#: Policy classes by name — lets callers inspect class-level attributes such
#: as ``randomized`` without instantiating a policy (hRP/RM construction
#: draws hash matrices / permutation networks, which is wasted work for a
#: mere capability check).
PLACEMENT_CLASSES: Dict[str, type] = {
    "modulo": ModuloPlacement,
    "xor": DeterministicXorPlacement,
    "hrp": HashRandomPlacement,
    "rm": RandomModuloPlacement,
}

#: Names accepted by :func:`make_placement`.
PLACEMENT_NAMES = tuple(PLACEMENT_CLASSES)


def placement_is_randomized(name: str) -> bool:
    """Whether the named policy redraws its mapping from the per-run seed."""
    try:
        return bool(PLACEMENT_CLASSES[name.lower()].randomized)
    except KeyError as error:
        raise ValueError(
            f"unknown placement policy {name!r}; expected one of {PLACEMENT_NAMES}"
        ) from error


def make_placement(
    name: str,
    geometry: PlacementGeometry,
    seed: int = 0,
) -> PlacementPolicy:
    """Instantiate a placement policy by name.

    ``name`` is one of ``"modulo"``, ``"xor"``, ``"hrp"`` or ``"rm"``.
    """
    key = name.lower()
    if key == "modulo":
        return ModuloPlacement(geometry)
    if key == "xor":
        return DeterministicXorPlacement(geometry)
    if key == "hrp":
        return HashRandomPlacement(geometry, seed=seed)
    if key == "rm":
        return RandomModuloPlacement(geometry, seed=seed)
    raise ValueError(f"unknown placement policy {name!r}; expected one of {PLACEMENT_NAMES}")

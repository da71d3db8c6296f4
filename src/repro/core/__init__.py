"""Core contribution of the paper: random cache placement functions.

The :mod:`repro.core` package contains everything needed to compute the set
index of an address under the placement policies the paper evaluates
(modulo, hash-based random placement and Random Modulo), plus the SplitMix64
seed and victim generator of the randomised designs and the permutation
networks Random Modulo is built from.
"""

from .benes import (
    BenesNetwork,
    OddEvenNetwork,
    PermutationNetwork,
    make_permutation_network,
)
from .bits import (
    ceil_log2,
    fold_xor,
    from_bits,
    is_power_of_two,
    mask,
    rotate_left,
    rotate_right,
    to_bits,
)
from .placement import (
    PLACEMENT_NAMES,
    HashRandomPlacement,
    ModuloPlacement,
    PlacementGeometry,
    PlacementPolicy,
    RandomModuloPlacement,
    make_placement,
)
from .prng import SplitMix64, derive_run_seeds

__all__ = [
    "BenesNetwork",
    "OddEvenNetwork",
    "PermutationNetwork",
    "make_permutation_network",
    "ceil_log2",
    "fold_xor",
    "from_bits",
    "is_power_of_two",
    "mask",
    "rotate_left",
    "rotate_right",
    "to_bits",
    "PLACEMENT_NAMES",
    "HashRandomPlacement",
    "ModuloPlacement",
    "PlacementGeometry",
    "PlacementPolicy",
    "RandomModuloPlacement",
    "make_placement",
    "SplitMix64",
    "derive_run_seeds",
]

"""The synthetic vector-traversal kernel of Section 4 of the paper.

The paper complements the EEMBC benchmarks with a synthetic kernel that
"accesses a vector with a data footprint that we have varied to (i) make it
fit in L1 (8 KB), (ii) not to fit in L1 but to fit in L2 (20 KB), and (iii)
not to fit neither in L1 nor in L2 (160 KB)", traversing the whole vector in
a loop 50 times.  This module generates exactly that access pattern.

The three standard footprints are exposed as :data:`SYNTHETIC_FOOTPRINTS`;
:func:`synthetic_vector_trace` builds the trace for any footprint so the
ablation benchmarks can sweep it continuously.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache.trace import Trace
from .base import MemoryLayout

__all__ = [
    "SYNTHETIC_FOOTPRINTS",
    "synthetic_vector_trace",
    "synthetic_footprint_trace",
]

#: The three footprints evaluated in the paper (bytes).
SYNTHETIC_FOOTPRINTS: Dict[str, int] = {
    "fits_l1": 8 * 1024,
    "fits_l2": 20 * 1024,
    "exceeds_l2": 160 * 1024,
}


def synthetic_vector_trace(
    footprint_bytes: int,
    iterations: int = 50,
    element_stride: int = 32,
    loads_per_element: int = 1,
    fetches_per_element: int = 2,
    code_bytes: int = 96,
    store_every: int = 0,
    layout: Optional[MemoryLayout] = None,
    name: Optional[str] = None,
) -> Trace:
    """Build the vector-traversal trace.

    Parameters
    ----------
    footprint_bytes:
        Size of the traversed vector.
    iterations:
        Number of full traversals (the paper uses 50).
    element_stride:
        Byte distance between consecutive visited elements; the default of
        one cache line means every line of the vector is touched once per
        traversal.
    loads_per_element / fetches_per_element:
        Loads issued per visited element and instruction fetches of the loop
        body interleaved with them.
    code_bytes:
        Footprint of the traversal loop code (small, always cache resident).
    store_every:
        If non-zero, every ``store_every``-th element is also written
        (vector update variant).
    """
    if footprint_bytes <= 0:
        raise ValueError(f"footprint_bytes must be positive, got {footprint_bytes}")
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if element_stride <= 0:
        raise ValueError(f"element_stride must be positive, got {element_stride}")

    layout = layout or MemoryLayout()
    trace = Trace(name=name or f"synthetic_{footprint_bytes // 1024}KB")
    code_words = max(code_bytes // 4, 1)
    elements = max(footprint_bytes // element_stride, 1)

    code_cursor = 0
    for _ in range(iterations):
        for element in range(elements):
            address = layout.data_base + element * element_stride
            for _ in range(fetches_per_element):
                trace.fetch(layout.code_base + (code_cursor % code_words) * 4)
                code_cursor += 1
            for word in range(loads_per_element):
                trace.load(address + 4 * word)
            if store_every and element % store_every == store_every - 1:
                trace.store(address)
    return trace


def synthetic_footprint_trace(
    which: str,
    iterations: int = 50,
    layout: Optional[MemoryLayout] = None,
) -> Trace:
    """Build one of the paper's three synthetic variants.

    ``which`` is ``"fits_l1"`` (8 KB), ``"fits_l2"`` (20 KB) or
    ``"exceeds_l2"`` (160 KB).
    """
    try:
        footprint = SYNTHETIC_FOOTPRINTS[which]
    except KeyError as error:
        raise ValueError(
            f"unknown synthetic variant {which!r}; expected one of "
            f"{sorted(SYNTHETIC_FOOTPRINTS)}"
        ) from error
    return synthetic_vector_trace(footprint, iterations=iterations, layout=layout, name=f"synthetic_{which}")

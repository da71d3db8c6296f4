"""Synthetic stand-ins for the EEMBC Automotive benchmarks used in the paper.

The EEMBC AutoBench suite is proprietary and cannot be redistributed, so the
11 kernels used in the paper's evaluation (identified by their initials in
Table 2: A2 BA BI CB CN MA PN PU RS TB TT) are replaced by parametric
stand-ins built on :func:`repro.workloads.base.build_kernel_trace`.  Each
stand-in reproduces the published characterisation of its benchmark: small
loop-dominated control code, look-up tables of a few KB, modest read/write
state, and an access pattern that ranges from purely sequential (rspeed) to
pointer chasing (pntrch) and cache-hostile strides (cacheb).

What matters for the reproduction is that the code + data footprints mostly
fit in the 16 KB L1 caches: under modulo or Random Modulo placement the
kernels then see few conflict misses, whereas hash-based random placement
(hRP) occasionally maps many hot lines to the same set and produces the long
execution-time tails that inflate its pWCET estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache.trace import Trace
from .base import KernelSpec, MemoryLayout, build_kernel_trace

__all__ = [
    "EEMBC_KERNELS",
    "EEMBC_INITIALS",
    "eembc_kernel_names",
    "eembc_spec",
    "eembc_trace",
]


def _spec(**kwargs) -> KernelSpec:
    return KernelSpec(**kwargs)


#: The 11 EEMBC Automotive stand-ins, keyed by benchmark name.
EEMBC_KERNELS: Dict[str, KernelSpec] = {
    "a2time": _spec(
        name="a2time",
        description=(
            "Angle-to-time conversion: tooth wheel pulse processing with a "
            "small interpolation table and a per-cylinder state record."
        ),
        code_bytes=2048,
        table_bytes=(10240, 6144),
        state_bytes=256,
        iterations=20,
        loads_per_iteration=96,
        stores_per_iteration=4,
        pattern="strided",
        stride=32,
        input_seed=0xA21,
    ),
    "basefp": _spec(
        name="basefp",
        description=(
            "Basic floating-point arithmetic over a coefficient table "
            "(software-float style inner loop)."
        ),
        code_bytes=3072,
        table_bytes=(4096, 2048),
        state_bytes=256,
        iterations=16,
        loads_per_iteration=48,
        stores_per_iteration=2,
        pattern="strided",
        stride=32,
        input_seed=0xBA5,
    ),
    "bitmnp": _spec(
        name="bitmnp",
        description=(
            "Bit manipulation: shift/mask heavy code over a small bit-field "
            "array with data-dependent branches."
        ),
        code_bytes=4096,
        table_bytes=(1024,),
        state_bytes=128,
        iterations=26,
        loads_per_iteration=8,
        stores_per_iteration=2,
        pattern="random",
        code_fraction=0.5,
        input_seed=0xB17,
    ),
    "cacheb": _spec(
        name="cacheb",
        description=(
            "Cache buster: wide-stride walks over an 8 KB buffer designed to "
            "defeat spatial locality."
        ),
        code_bytes=1024,
        table_bytes=(20480,),
        state_bytes=256,
        iterations=24,
        loads_per_iteration=64,
        stores_per_iteration=8,
        pattern="strided",
        stride=40,
        input_seed=0xCB0,
    ),
    "canrdr": _spec(
        name="canrdr",
        description=(
            "CAN remote data request: circular message buffer plus an "
            "acceptance-filter table."
        ),
        code_bytes=2560,
        table_bytes=(2048, 1024),
        state_bytes=384,
        iterations=20,
        loads_per_iteration=12,
        stores_per_iteration=6,
        pattern="blocked",
        stride=16,
        input_seed=0xCA9,
    ),
    "matrix": _spec(
        name="matrix",
        description=(
            "Matrix arithmetic: row/column walks over two 4 KB matrices with "
            "an accumulator record."
        ),
        code_bytes=1536,
        table_bytes=(4096, 4096),
        state_bytes=256,
        iterations=24,
        loads_per_iteration=64,
        stores_per_iteration=8,
        pattern="strided",
        stride=36,
        input_seed=0x3A7,
    ),
    "pntrch": _spec(
        name="pntrch",
        description=(
            "Pointer chase: linked-list traversal over a 6 KB node pool in a "
            "fixed pseudo-random order."
        ),
        code_bytes=1024,
        table_bytes=(8192,),
        state_bytes=64,
        iterations=28,
        loads_per_iteration=48,
        stores_per_iteration=2,
        pattern="pointer_chase",
        input_seed=0x9C4,
    ),
    "puwmod": _spec(
        name="puwmod",
        description=(
            "Pulse-width modulation: duty-cycle computation with a small "
            "calibration table and frequent state updates."
        ),
        code_bytes=3072,
        table_bytes=(1024,),
        state_bytes=256,
        iterations=26,
        loads_per_iteration=8,
        stores_per_iteration=6,
        pattern="sequential",
        code_fraction=0.6,
        input_seed=0x9D0,
    ),
    "rspeed": _spec(
        name="rspeed",
        description=(
            "Road speed calculation: short control loop over wheel-tick "
            "samples, almost entirely register resident."
        ),
        code_bytes=1536,
        table_bytes=(1024,),
        state_bytes=128,
        iterations=30,
        loads_per_iteration=8,
        stores_per_iteration=3,
        pattern="sequential",
        input_seed=0x85D,
    ),
    "tblook": _spec(
        name="tblook",
        description=(
            "Table lookup and interpolation: bilinear interpolation over a "
            "4 KB map plus a 2 KB axis table, data-dependent indices."
        ),
        code_bytes=2048,
        table_bytes=(12288, 4096),
        state_bytes=128,
        iterations=20,
        loads_per_iteration=48,
        stores_per_iteration=2,
        pattern="random",
        input_seed=0x7B1,
    ),
    "ttsprk": _spec(
        name="ttsprk",
        description=(
            "Tooth-to-spark: ignition timing with several calibration tables "
            "and branchy per-tooth processing."
        ),
        code_bytes=3584,
        table_bytes=(2048, 1024, 512),
        state_bytes=256,
        iterations=24,
        loads_per_iteration=16,
        stores_per_iteration=4,
        pattern="blocked",
        stride=32,
        code_fraction=0.5,
        input_seed=0x775,
    ),
}

#: Mapping from the initials used in Table 2 of the paper to kernel names.
EEMBC_INITIALS: Dict[str, str] = {
    "A2": "a2time",
    "BA": "basefp",
    "BI": "bitmnp",
    "CB": "cacheb",
    "CN": "canrdr",
    "MA": "matrix",
    "PN": "pntrch",
    "PU": "puwmod",
    "RS": "rspeed",
    "TB": "tblook",
    "TT": "ttsprk",
}


def eembc_kernel_names() -> List[str]:
    """Names of all EEMBC stand-ins, in the order used by the paper's tables."""
    return [EEMBC_INITIALS[initials] for initials in sorted(EEMBC_INITIALS)]


def eembc_spec(name: str) -> KernelSpec:
    """Return the :class:`KernelSpec` of a benchmark by name or initials."""
    key = name.lower()
    if name.upper() in EEMBC_INITIALS:
        key = EEMBC_INITIALS[name.upper()]
    try:
        return EEMBC_KERNELS[key]
    except KeyError as error:
        raise ValueError(
            f"unknown EEMBC kernel {name!r}; expected one of {sorted(EEMBC_KERNELS)}"
        ) from error


def eembc_trace(
    name: str,
    layout: Optional[MemoryLayout] = None,
    scale: float = 1.0,
) -> Trace:
    """Generate the memory-access trace of an EEMBC stand-in.

    ``scale`` multiplies the iteration count: the default of 1.0 produces
    roughly 10k accesses per kernel, which keeps a full MBPTA campaign
    tractable in pure Python while preserving each kernel's footprint and
    reuse pattern.
    """
    return build_kernel_trace(eembc_spec(name), layout=layout, scale=scale)

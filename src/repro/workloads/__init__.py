"""Workloads: EEMBC Automotive stand-ins, the synthetic vector kernel, layouts."""

from .base import (
    ACCESS_PATTERNS,
    KernelSpec,
    MemoryLayout,
    build_kernel_trace,
    random_layouts,
    relocate_trace,
)
from .eembc import (
    EEMBC_INITIALS,
    EEMBC_KERNELS,
    eembc_kernel_names,
    eembc_spec,
    eembc_trace,
)
from .programs import (
    matrix_multiply_program,
    pointer_chase_memory,
    pointer_chase_program,
    table_lookup_program,
    vector_traversal_program,
)
from .synthetic import (
    SYNTHETIC_FOOTPRINTS,
    synthetic_footprint_trace,
    synthetic_vector_trace,
)

__all__ = [
    "matrix_multiply_program",
    "pointer_chase_memory",
    "pointer_chase_program",
    "table_lookup_program",
    "vector_traversal_program",
    "ACCESS_PATTERNS",
    "KernelSpec",
    "MemoryLayout",
    "build_kernel_trace",
    "random_layouts",
    "relocate_trace",
    "EEMBC_INITIALS",
    "EEMBC_KERNELS",
    "eembc_kernel_names",
    "eembc_spec",
    "eembc_trace",
    "SYNTHETIC_FOOTPRINTS",
    "synthetic_footprint_trace",
    "synthetic_vector_trace",
]

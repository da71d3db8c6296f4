"""Tests for the workload generators (EEMBC stand-ins, synthetic kernel, layouts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.trace import AccessKind
from repro.core.prng import SplitMix64
from repro.workloads.base import (
    ACCESS_PATTERNS,
    KernelSpec,
    MemoryLayout,
    build_kernel_trace,
    random_layouts,
    relocate_trace,
)
from repro.workloads.eembc import (
    EEMBC_INITIALS,
    EEMBC_KERNELS,
    eembc_kernel_names,
    eembc_spec,
    eembc_trace,
)
from repro.workloads.synthetic import (
    SYNTHETIC_FOOTPRINTS,
    synthetic_footprint_trace,
    synthetic_vector_trace,
)


class TestMemoryLayout:
    def test_shifted(self):
        layout = MemoryLayout().shifted(code_shift=0x100, data_shift=0x200)
        assert layout.code_base == MemoryLayout().code_base + 0x100
        assert layout.data_base == MemoryLayout().data_base + 0x200

    def test_random_layouts_are_reproducible(self):
        assert random_layouts(5, master_seed=3) == random_layouts(5, master_seed=3)

    def test_random_layouts_respect_granularity(self):
        base = MemoryLayout()
        for layout in random_layouts(20, master_seed=1, granularity=64, span=1024):
            assert (layout.code_base - base.code_base) % 64 == 0
            assert 0 <= layout.code_base - base.code_base < 1024

    def test_random_layouts_vary(self):
        layouts = random_layouts(20, master_seed=2)
        assert len({layout.data_base for layout in layouts}) > 1

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            random_layouts(-1)
        with pytest.raises(ValueError):
            random_layouts(1, granularity=0)


class TestKernelSpec:
    def test_footprints(self):
        spec = KernelSpec(
            name="k", description="", code_bytes=1024, table_bytes=(2048, 512),
            state_bytes=128, iterations=4, loads_per_iteration=4, stores_per_iteration=1,
        )
        assert spec.data_bytes == 2048 + 512 + 128
        assert spec.footprint_bytes == spec.data_bytes + 1024

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(
                name="k", description="", code_bytes=64, table_bytes=(64,),
                state_bytes=0, iterations=1, loads_per_iteration=1,
                stores_per_iteration=0, pattern="zigzag",
            )

    def test_bad_code_fraction_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(
                name="k", description="", code_bytes=64, table_bytes=(),
                state_bytes=0, iterations=1, loads_per_iteration=1,
                stores_per_iteration=0, code_fraction=0.0,
            )

    def test_scaled_changes_iterations_only(self):
        spec = eembc_spec("a2time")
        scaled = spec.scaled(0.5)
        assert scaled.iterations == max(1, round(spec.iterations * 0.5))
        assert scaled.code_bytes == spec.code_bytes

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            eembc_spec("a2time").scaled(0)


class TestKernelTraceGeneration:
    @pytest.mark.parametrize("pattern", ACCESS_PATTERNS)
    def test_every_pattern_generates_accesses(self, pattern):
        spec = KernelSpec(
            name=f"k_{pattern}", description="", code_bytes=256,
            table_bytes=(1024,), state_bytes=64, iterations=8,
            loads_per_iteration=6, stores_per_iteration=2, pattern=pattern, stride=32,
        )
        trace = build_kernel_trace(spec)
        counts = trace.counts()
        assert counts["loads"] == 6 * 8
        assert counts["stores"] == 2 * 8
        assert counts["fetches"] == (256 // 4) * 8

    def test_trace_is_deterministic(self):
        spec = eembc_spec("tblook")
        a = build_kernel_trace(spec)
        b = build_kernel_trace(spec)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.kinds, b.kinds)

    def test_layout_shifts_addresses(self):
        spec = eembc_spec("a2time")
        base = build_kernel_trace(spec)
        shifted = build_kernel_trace(spec, layout=MemoryLayout().shifted(data_shift=0x400))
        assert not np.array_equal(base.addresses, shifted.addresses)
        assert len(base) == len(shifted)

    def test_scale_changes_length(self):
        spec = eembc_spec("rspeed")
        assert len(build_kernel_trace(spec, scale=0.5)) < len(build_kernel_trace(spec))

    def test_data_stays_within_declared_footprint(self):
        spec = eembc_spec("matrix")
        trace = build_kernel_trace(spec)
        layout = MemoryLayout()
        data_addresses = [
            address for kind, address in zip(trace.kinds, trace.addresses) if kind != 0
        ]
        assert min(data_addresses) >= layout.data_base
        assert max(data_addresses) < layout.data_base + spec.data_bytes


class TestRelocation:
    """Relocating the trace built at ``MemoryLayout()`` equals rebuilding it."""

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    @pytest.mark.parametrize("name", eembc_kernel_names())
    def test_relocation_equals_rebuild(self, name, scale):
        base = eembc_trace(name, scale=scale)
        rng = SplitMix64(sum(map(ord, name)) * 10 + int(scale * 10))
        # 4 B-multiple shifts drawn across the 32-bit space; most carry a
        # segment past 2**32, and the last one wraps both segments.
        shifts = [
            tuple(rng.next_below(1 << 30) * 4 for _ in range(3)) for _ in range(4)
        ]
        shifts.append((0xFFFF_FFFC, 0xC000_0000, 4))
        for code, data, stack in shifts:
            layout = MemoryLayout().shifted(code, data, stack)
            rebuilt = eembc_trace(name, layout=layout, scale=scale)
            moved = relocate_trace(base, code, data)
            assert np.array_equal(moved.kinds, rebuilt.kinds)
            assert np.array_equal(moved.addresses, rebuilt.addresses)
            assert moved.name == rebuilt.name


class TestEembcSuite:
    def test_eleven_kernels(self):
        assert len(EEMBC_KERNELS) == 11
        assert len(EEMBC_INITIALS) == 11
        assert set(EEMBC_INITIALS.values()) == set(EEMBC_KERNELS)

    def test_kernel_names_order(self):
        names = eembc_kernel_names()
        assert names[0] == "a2time"
        assert len(names) == 11

    def test_spec_lookup_by_initials(self):
        assert eembc_spec("TB").name == "tblook"
        assert eembc_spec("a2time").name == "a2time"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            eembc_spec("dhrystone")

    def test_all_kernels_generate_reasonable_traces(self):
        for name in eembc_kernel_names():
            trace = eembc_trace(name, scale=0.25)
            assert len(trace) > 500, name
            assert trace.counts()["fetches"] > 0
            assert trace.counts()["loads"] > 0

    def test_code_footprints_fit_one_l1_way(self):
        # Random Modulo guarantees conflict-free instruction placement as
        # long as the hot code fits the 4 KB cache segment; the stand-ins
        # respect that, as the real EEMBC inner loops do.
        for name, spec in EEMBC_KERNELS.items():
            assert spec.code_bytes <= 4096, name

    def test_data_footprints_are_diverse(self):
        footprints = {spec.data_bytes for spec in EEMBC_KERNELS.values()}
        assert max(footprints) > 8 * 1024
        assert min(footprints) < 2 * 1024


class TestSyntheticKernel:
    def test_three_paper_footprints(self):
        assert SYNTHETIC_FOOTPRINTS["fits_l1"] == 8 * 1024
        assert SYNTHETIC_FOOTPRINTS["fits_l2"] == 20 * 1024
        assert SYNTHETIC_FOOTPRINTS["exceeds_l2"] == 160 * 1024

    def test_footprint_is_respected(self):
        trace = synthetic_vector_trace(8 * 1024, iterations=2)
        data_lines = {
            address & ~31
            for kind, address in zip(trace.kinds, trace.addresses)
            if kind != AccessKind.FETCH
        }
        assert len(data_lines) == 8 * 1024 // 32

    def test_iterations_scale_length(self):
        short = synthetic_vector_trace(4096, iterations=2)
        long = synthetic_vector_trace(4096, iterations=4)
        assert len(long) == 2 * len(short)

    def test_store_every(self):
        trace = synthetic_vector_trace(4096, iterations=1, store_every=4)
        assert trace.counts()["stores"] == (4096 // 32) // 4

    def test_variant_helper(self):
        trace = synthetic_footprint_trace("fits_l1", iterations=1)
        assert trace.name == "synthetic_fits_l1"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            synthetic_footprint_trace("huge")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            synthetic_vector_trace(0)
        with pytest.raises(ValueError):
            synthetic_vector_trace(1024, iterations=0)

    @given(footprint=st.sampled_from([2048, 4096, 8192]), iterations=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_length_formula(self, footprint, iterations):
        trace = synthetic_vector_trace(footprint, iterations=iterations)
        elements = footprint // 32
        assert len(trace) == iterations * elements * 3  # 2 fetches + 1 load

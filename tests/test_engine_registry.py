"""Unit tests of the engine registry and the capability flags."""

import pytest

from repro.cache.fastsim import CompiledTrace
from repro.engine import (
    DEFAULT_ENGINE,
    Engine,
    NumpyEngine,
    ReferenceEngine,
    available_engines,
    engine_capabilities,
    get_engine,
    register_engine,
    unregister_engine,
)


class TestRegistryLookup:
    def test_builtin_engines_registered(self):
        # One production engine plus one oracle; numpy is a declared
        # dependency, so the default is always usable.
        assert available_engines() == ("numpy", "reference")
        assert DEFAULT_ENGINE == "numpy"

    def test_available_engines_sorted(self):
        assert list(available_engines()) == sorted(available_engines())

    def test_get_engine_returns_named_engine(self):
        assert get_engine("numpy").name == "numpy"
        assert isinstance(get_engine("reference"), ReferenceEngine)

    def test_unknown_engine_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="unknown engine 'warp'") as excinfo:
            get_engine("warp")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message


class TestRegistration:
    def _make_stub(self, stub_name):
        class StubEngine(Engine):
            name = stub_name
            supports_batch = False
            bit_exact = False
            requires_pickle = False

            def simulator(self, config, compiled):
                raise NotImplementedError

        return StubEngine()

    def test_register_and_unregister(self):
        stub = self._make_stub("stub-engine")
        try:
            register_engine(stub)
            assert get_engine("stub-engine") is stub
            assert "stub-engine" in available_engines()
        finally:
            unregister_engine("stub-engine")
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("stub-engine")

    def test_duplicate_registration_rejected(self):
        stub = self._make_stub("stub-dup")
        try:
            register_engine(stub)
            with pytest.raises(ValueError, match="already registered"):
                register_engine(self._make_stub("stub-dup"))
            replacement = self._make_stub("stub-dup")
            register_engine(replacement, replace=True)
            assert get_engine("stub-dup") is replacement
        finally:
            unregister_engine("stub-dup")

    def test_abstract_name_rejected(self):
        class Nameless(Engine):
            def simulator(self, config, compiled):
                raise NotImplementedError

        with pytest.raises(ValueError, match="concrete name"):
            register_engine(Nameless())


class TestCapabilities:
    def test_capability_flags(self):
        reference = get_engine("reference")
        assert not reference.supports_batch
        assert reference.bit_exact and reference.requires_pickle
        vectorized = get_engine("numpy")
        assert vectorized.supports_batch and vectorized.bit_exact
        assert vectorized.requires_pickle

    def test_capability_matrix_describes_every_engine(self):
        matrix = engine_capabilities()
        assert set(matrix) == set(available_engines())
        for name, capabilities in matrix.items():
            assert set(capabilities) == {
                "name", "supports_batch", "bit_exact", "requires_pickle"
            }
            assert capabilities["name"] == name
            for flag in ("supports_batch", "bit_exact", "requires_pickle"):
                assert isinstance(capabilities[flag], bool)


class TestSimulatorConstruction:
    def test_numpy_engine_builds_plan_simulator(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        compiled = CompiledTrace(
            small_kernel_trace, line_size=tiny_hierarchy_config.il1.line_size
        )
        simulator = NumpyEngine().simulator(tiny_hierarchy_config, compiled)
        assert simulator.plan.n_accesses == len(small_kernel_trace)
        assert simulator.run(3).cycles > 0

    def test_reference_engine_rejects_mixed_line_sizes(self, small_kernel_trace):
        """The oracle refuses configs it cannot replay exactly, loudly."""
        from repro.cache.cache import CacheConfig
        from repro.cache.hierarchy import HierarchyConfig

        config = HierarchyConfig(
            il1=CacheConfig(name="IL1", size_bytes=1024, ways=2, line_size=32),
            dl1=CacheConfig(name="DL1", size_bytes=1024, ways=2, line_size=16),
        )
        compiled = CompiledTrace(small_kernel_trace, line_size=config.il1.line_size)
        with pytest.raises(ValueError, match="line size"):
            ReferenceEngine().simulator(config, compiled)

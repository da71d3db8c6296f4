"""Tests for the LEON3 platform factory."""

import re

import pytest

from repro.platform.leon3 import (
    Leon3Parameters,
    PLATFORM_SETUPS,
    leon3_hierarchy,
    platform_setup,
)


class TestParameters:
    def test_defaults_follow_paper(self):
        params = Leon3Parameters()
        assert params.l1_size_bytes == 16 * 1024
        assert params.l1_ways == 4
        assert params.l2_size_bytes == 128 * 1024
        assert params.line_size == 32

    def test_timings_property(self):
        timings = Leon3Parameters(l2_hit_cycles=12).timings
        assert timings.l2_hit == 12


class TestSetups:
    def test_all_named_setups_build(self):
        for name in PLATFORM_SETUPS:
            config = platform_setup(name)
            assert config.il1.num_sets == 128

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            platform_setup("fancy")

    @pytest.mark.parametrize("name", ["xor", "RM", "Modulo"])
    def test_setup_outside_the_model_rejected(self, name):
        # The deleted xor setup and case variants alike, listing the setups.
        message = f"setup must be one of {tuple(PLATFORM_SETUPS)}, got {name!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            platform_setup(name)

    @pytest.mark.parametrize(
        "parameter, name",
        [
            ("l1_placement", "xor"),
            ("l2_placement", "xor"),
            ("l1_replacement", "fifo"),
            ("l2_replacement", "plru"),
        ],
    )
    def test_policy_outside_the_model_names_the_parameter(self, parameter, name):
        with pytest.raises(ValueError, match=f"^{parameter} must be one of .*, got {name!r}$"):
            leon3_hierarchy(**{parameter: name})

    def test_l2_policies_checked_without_an_l2(self):
        # No L2 is built, yet its names are still checked by parameter.
        with pytest.raises(ValueError, match="^l2_placement must be one of"):
            leon3_hierarchy(l2_placement="xor", with_l2=False)

    def test_rm_and_hrp_setups_differ_in_l1_only(self):
        rm = platform_setup("rm")
        hrp = platform_setup("hrp")
        assert rm.il1.placement == "rm" and hrp.il1.placement == "hrp"
        assert rm.l2.placement == hrp.l2.placement == "hrp"

    def test_deterministic_setups_use_lru(self):
        modulo = platform_setup("modulo")
        assert modulo.il1.replacement == "lru"
        assert modulo.l2.replacement == "lru"

    def test_without_l2(self):
        assert platform_setup("rm", with_l2=False).l2 is None

    def test_custom_parameters_are_applied(self):
        params = Leon3Parameters(l2_size_bytes=32 * 1024)
        config = leon3_hierarchy(parameters=params)
        assert config.l2.size_bytes == 32 * 1024
        assert config.l2.num_sets == 256

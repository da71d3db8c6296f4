"""Experiment ``table1``: ASIC & FPGA implementation results (Table 1).

Paper reference values: the RM module is ~10x smaller (336.6 vs 3514.7 um^2)
and ~27 % faster (0.46 vs 0.59 ns) than hRP on 45 nm; on the Stratix IV
prototype RM keeps the 100 MHz baseline clock at 72 % occupancy while hRP
drops the clock to 80 MHz at 80 % occupancy.
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("table1")
def test_table1_hardware_costs(benchmark):
    result = run_once(benchmark, lambda: run_study("table1").result)
    print()
    print(result.format())

    # Shape assertions: RM is roughly an order of magnitude smaller and
    # clearly faster, and only hRP degrades the FPGA clock.
    assert result.area_ratio > 5.0
    assert 0.1 < result.delay_reduction < 0.6
    assert result.fpga["RM"]["frequency_mhz"] == result.fpga["baseline"]["frequency_mhz"]
    assert result.fpga["hRP"]["frequency_mhz"] < result.fpga["RM"]["frequency_mhz"]
    assert result.fpga["hRP"]["occupancy_percent"] > result.fpga["RM"]["occupancy_percent"]


@pytest.mark.experiment("table1")
@pytest.mark.parametrize("num_sets", [64, 256, 1024])
def test_table1_scales_with_cache_size(benchmark, num_sets):
    result = run_once(benchmark, lambda: run_study("table1", num_sets=num_sets).result)
    assert result.area_ratio > 3.0

"""Experiment ``fig5``: synthetic-kernel distributions and pWCET curves (Figure 5).

Paper reference values (20 KB footprint, i.e. larger than the L1 but fitting
the L2): RM execution times stay in a narrow band (never beyond 720k cycles
on the FPGA) while hRP occasionally maps many lines to few sets and exceeds
1,200k cycles; consequently the hRP pWCET curve lies far above the RM one.
The 8 KB and 160 KB variants discussed in the text are regenerated as well.
"""

import pytest

from conftest import run_once
from repro.study import run_study
from repro.workloads.synthetic import SYNTHETIC_FOOTPRINTS


@pytest.mark.experiment("fig5")
def test_fig5_20kb_footprint(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_study(
            "fig5", settings, footprint_bytes=SYNTHETIC_FOOTPRINTS["fits_l2"]
        ).result,
    )
    print()
    print(result.format())

    rm_spread = max(result.samples["rm"]) - min(result.samples["rm"])
    hrp_spread = max(result.samples["hrp"]) - min(result.samples["hrp"])
    # RM shows much lower variability than hRP (Figure 5(a) vs 5(b)) and a
    # far lower pWCET curve (Figure 5(c)).
    assert rm_spread < hrp_spread
    assert max(result.samples["rm"]) < max(result.samples["hrp"])
    assert result.pwcet["rm"][1e-15] < result.pwcet["hrp"][1e-15]


@pytest.mark.experiment("fig5")
def test_fig5_8kb_footprint(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_study(
            "fig5", settings, footprint_bytes=SYNTHETIC_FOOTPRINTS["fits_l1"]
        ).result,
    )
    print()
    print(result.format())
    # Fits the L1: RM is conflict-free, hence (near-)constant.
    assert max(result.samples["rm"]) - min(result.samples["rm"]) <= 1
    assert result.pwcet["rm"][1e-15] <= result.pwcet["hrp"][1e-15]


@pytest.mark.experiment("fig5")
def test_fig5_160kb_footprint(benchmark, reduced_settings):
    result = run_once(
        benchmark,
        lambda: run_study(
            "fig5",
            reduced_settings,
            footprint_bytes=SYNTHETIC_FOOTPRINTS["exceeds_l2"],
            iterations=4,
        ).result,
    )
    print()
    print(result.format())
    # Beyond the L2 capacity both designs are dominated by capacity misses;
    # RM must still not be worse than hRP.
    assert result.pwcet["rm"][1e-15] <= result.pwcet["hrp"][1e-15] * 1.02

"""Ablation ``ablation_seg``: footprint sweep for segment-preserving placement.

DESIGN.md calls out the key design choice of Random Modulo — preserving
cache segments — and this sweep quantifies it: as the synthetic kernel's
footprint grows from "fits one way" to "exceeds the cache", RM's advantage
over free random placement (hRP) first appears (footprints between one way
and the full cache, where hRP can conflict but RM cannot) and then vanishes
(footprints beyond the cache, where capacity misses dominate both).
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("ablation_seg")
def test_footprint_sweep(benchmark, reduced_settings):
    result = run_once(
        benchmark,
        lambda: run_study(
            "ablation_seg",
            reduced_settings,
            footprints=(4 * 1024, 8 * 1024, 20 * 1024, 40 * 1024),
            iterations=6,
        ).result,
    )
    print()
    print(result.format())

    by_footprint = {int(row["footprint_bytes"]): row for row in result.rows}
    # 4 KB fits one way: both designs are conflict-free.
    assert by_footprint[4 * 1024]["pwcet_ratio"] == pytest.approx(1.0, abs=0.05)
    # Between one way and cache capacity RM is clearly tighter.
    assert by_footprint[8 * 1024]["pwcet_ratio"] < 0.9
    assert by_footprint[20 * 1024]["pwcet_ratio"] < 0.9
    # Far beyond capacity the advantage disappears (capacity misses dominate).
    assert by_footprint[40 * 1024]["pwcet_ratio"] == pytest.approx(1.0, abs=0.10)

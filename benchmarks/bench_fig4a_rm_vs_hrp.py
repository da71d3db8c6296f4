"""Experiment ``fig4a``: RM pWCET normalised to hRP (Figure 4(a)).

Paper reference values: RM yields consistently tighter pWCET estimates than
hRP for every EEMBC benchmark, from 25 % tighter (pntrch) to 62 % tighter
(a2time), 43 % on average, at a cutoff probability of 1e-15 (similar at
1e-12).
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("fig4a")
def test_fig4a_rm_vs_hrp(benchmark, settings):
    result = run_once(benchmark, lambda: run_study("fig4a", settings).result)
    print()
    print(result.format())

    assert len(result.rows) == 11
    # RM must never be (meaningfully) worse than hRP, and the average
    # reduction must be substantial, as in the paper.
    for name, row in result.rows.items():
        assert row["ratio"] <= 1.02, f"{name}: RM worse than hRP"
    assert result.average_reduction > 0.20
    # The secondary cutoff (1e-12) shows the same ranking.
    for row in result.rows.values():
        assert row["pwcet_rm_secondary"] <= row["pwcet_hrp_secondary"] * 1.02

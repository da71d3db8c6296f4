"""Experiment ``table2``: MBPTA compliance of Random Modulo (Table 2).

Paper reference values: every EEMBC Automotive benchmark passes the
Wald-Wolfowitz independence test (statistic below 1.96) and the two-sample
Kolmogorov-Smirnov identical-distribution test (p-value above 0.05) when run
1000 times with per-run random seeds on the RM caches.
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("table2")
def test_table2_iid_admission(benchmark, settings):
    result = run_once(benchmark, lambda: run_study("table2", settings).result)
    print()
    print(result.format())

    assert len(result.rows) == 11
    for name, row in result.rows.items():
        assert row["ww"] < result.ww_critical, f"{name} failed independence"
        assert row["ks"] > result.ks_threshold, f"{name} failed identical distribution"
    assert result.all_passed

"""Experiment ``avg_perf``: average performance of RM vs modulo (Section 4.4).

Paper reference values: averaged over the EEMBC suite, RM is only 1.6 %
slower than conventional modulo placement, with a maximum degradation of 8 %
— i.e. the WCET benefits of MBPTA-compliant placement come at essentially no
average-performance cost.
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("avg_perf")
def test_average_performance_rm_vs_modulo(benchmark, settings):
    result = run_once(benchmark, lambda: run_study("avg_perf", settings).result)
    print()
    print(result.format())

    assert len(result.rows) == 11
    assert result.average_degradation < 0.05
    assert result.max_degradation < 0.10
    # RM must never be faster than the conflict-free deterministic baseline
    # by more than noise, nor dramatically slower.
    for name, row in result.rows.items():
        assert -0.01 <= row["degradation"] <= 0.10, name

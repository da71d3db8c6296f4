"""Experiment ``fig1``: the EVT projection / pWCET curve (Figure 1).

Figure 1 of the paper is illustrative: it shows a pWCET curve as a
complementary cumulative distribution function on a log scale, with the
cutoff probability picking the pWCET estimate.  This bench regenerates that
curve from an actual campaign (a2time on the RM platform) and checks its
defining properties.
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("fig1")
def test_fig1_pwcet_projection(benchmark, settings):
    result = run_once(
        benchmark, lambda: run_study("fig1", settings, benchmark="a2time").result
    )
    print()
    print(result.format())

    # The projected curve must be monotone (lower exceedance probability ->
    # higher execution time) and dominate the observations.
    values = [value for value, _ in result.projected]
    probabilities = [probability for _, probability in result.projected]
    assert values == sorted(values)
    assert probabilities == sorted(probabilities, reverse=True)
    hwm = result.empirical[-1][0]
    assert result.pwcet[1e-15] >= hwm
    assert result.pwcet[1e-15] >= result.pwcet[1e-12] >= result.pwcet[1e-9]

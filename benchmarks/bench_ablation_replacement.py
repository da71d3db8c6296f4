"""Ablation ``ablation_repl``: placement x replacement interaction.

The paper pairs random placement with random replacement (as LEON/Cortex-R
class parts do).  This ablation checks that the pWCET advantage of RM over
hRP comes from the *placement* function, not from the replacement policy:
swapping random replacement for LRU barely moves RM (which has no conflicts
to replace away) while hRP remains far worse under either policy.
"""

import pytest

from conftest import run_once
from repro.study import run_study


@pytest.mark.experiment("ablation_repl")
def test_replacement_interaction(benchmark, reduced_settings):
    result = run_once(
        benchmark,
        lambda: run_study("ablation_repl", reduced_settings, benchmark="tblook").result,
    )
    print()
    print(result.format())

    rows = result.rows
    # RM is insensitive to the replacement policy for a fitting workload.
    assert rows["rm + random"]["pwcet"] == pytest.approx(rows["rm + lru"]["pwcet"], rel=0.05)
    # Both hRP variants are clearly worse than both RM variants.
    worst_rm = max(rows["rm + random"]["pwcet"], rows["rm + lru"]["pwcet"])
    for label in ("hrp + random", "hrp + lru"):
        assert rows[label]["pwcet"] > worst_rm

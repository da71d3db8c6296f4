#!/usr/bin/env python3
"""Quickstart: estimate the pWCET of one benchmark on a Random Modulo cache.

This walks through the complete MBPTA flow of the paper in a few lines:

1. build the LEON3-like platform with Random Modulo L1 caches;
2. generate the memory-access trace of an EEMBC Automotive stand-in;
3. run a measurement campaign (one run per random seed);
4. check the i.i.d. admission tests and project the pWCET curve.

Run with:  python examples/quickstart.py
"""

from repro import apply_mbpta, eembc_trace, platform_setup, run_campaign
from repro.analysis import format_table

RUNS = 200
MASTER_SEED = 2016


def main() -> None:
    # 1. The platform: 16 KB 4-way L1s with Random Modulo placement and
    #    random replacement, 128 KB L2 with hash-based random placement.
    platform = platform_setup("rm")

    # 2. The workload: the angle-to-time EEMBC stand-in.
    trace = eembc_trace("a2time")
    print(f"workload: {trace.name}, {len(trace)} memory accesses, "
          f"{trace.footprint_bytes() // 1024} KB footprint")

    # 3. The measurement campaign: each run gets a fresh placement seed,
    #    derived deterministically from the master seed.
    campaign = run_campaign(trace, platform, runs=RUNS, master_seed=MASTER_SEED)
    print(f"collected {campaign.runs} execution times "
          f"(min {campaign.minimum:,}, mean {campaign.mean:,.0f}, "
          f"hwm {campaign.high_water_mark:,})")

    # 4. MBPTA: i.i.d. admission tests + EVT projection.
    result = apply_mbpta(campaign.execution_times)
    print(f"i.i.d. admission tests passed: {result.iid_passed}")
    rows = [
        ("independence (WW)", f"{result.assessment.independence.statistic:.3f}", "< 1.96"),
        ("identical distribution (KS p)", f"{result.assessment.identical_distribution.p_value:.3f}", "> 0.05"),
        ("Gumbel tail (ET)", f"{result.assessment.gumbel_convergence.statistic:.3f}", "< 0.224"),
    ]
    print(format_table(["admission test", "value", "pass when"], rows))

    print()
    for probability in (1e-12, 1e-15):
        print(f"pWCET @ {probability:g} per run: {result.pwcet_at(probability):,.0f} cycles "
              f"({result.pwcet_at(probability) / campaign.high_water_mark:.2f}x the hwm)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare pWCET estimates of Random Modulo and hash-based random placement.

This reproduces a scaled-down Figure 4 of the paper over a subset of the
EEMBC Automotive stand-ins: for each benchmark it runs an MBPTA campaign on
the RM setup and on the hRP setup, plus the deterministic (modulo + LRU)
setup under memory-layout variation for the industrial high-water-mark
comparison.

Run with:  python examples/eembc_pwcet_campaign.py [runs]
"""

import sys

from repro import (
    apply_mbpta,
    eembc_trace,
    industrial_bound,
    platform_setup,
    run_campaign,
    run_layout_campaign,
)
from repro.analysis import format_table

BENCHMARKS = ("a2time", "cacheb", "pntrch", "tblook")
CUTOFF = 1e-15


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    rows = []
    for benchmark in BENCHMARKS:
        trace = eembc_trace(benchmark)

        pwcet = {}
        for setup in ("rm", "hrp"):
            campaign = run_campaign(
                trace, platform_setup(setup), runs=runs, master_seed=7, setup=setup
            )
            pwcet[setup] = apply_mbpta(campaign.execution_times).pwcet_at(CUTOFF)

        # Each memory layout relocates the same trace: all of them run as
        # the lanes of one engine batch.
        deterministic = run_layout_campaign(
            trace,
            platform_setup("modulo"),
            runs=min(runs, 100),
            master_seed=11,
        )
        bound = industrial_bound(deterministic.execution_times)

        rows.append(
            (
                benchmark,
                f"{pwcet['rm']:,.0f}",
                f"{pwcet['hrp']:,.0f}",
                f"{(1 - pwcet['rm'] / pwcet['hrp']) * 100:.0f}%",
                f"{(bound.pwcet_ratio(pwcet['rm']) - 1) * 100:+.1f}%",
            )
        )

    print(
        format_table(
            [
                "benchmark",
                f"pWCET RM @ {CUTOFF:g}",
                f"pWCET hRP @ {CUTOFF:g}",
                "RM reduction",
                "RM pWCET vs det. hwm",
            ],
            rows,
            title=f"RM vs hRP vs deterministic baseline ({runs} runs per campaign)",
        )
    )


if __name__ == "__main__":
    main()

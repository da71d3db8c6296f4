"""Benchmarks of the pWCET analysis subsystem: one batch pass vs a loop.

``test_vectorized_vs_loop_fit_throughput`` measures the whole
fit-assessment pipeline (admission battery + block maxima + EVT fit +
pWCET projection) head-to-head: one :func:`repro.pwcet.apply_mbpta_batch`
call over an ``(n_campaigns, n_runs)`` matrix versus a loop of
per-campaign one-row calls (:func:`repro.pwcet.apply_mbpta` is a one-row
``apply_mbpta_batch``), at 8/32/128 campaigns.  The loop pays the
pipeline's fixed per-call cost once per campaign; no production path
analyses one campaign per call (``ResultSet`` batches every analysis).
Exact equality of the two is asserted (a campaign's result does not
depend on the campaigns batched with it); the timing table is printed
(shared CI boxes are noisy, so only the 32/128-campaign speedups are
softly asserted at the >=3x acceptance bar).

``test_bootstrap_batch_throughput`` measures the same comparison with
bootstrap confidence intervals enabled, where the resample refits dominate.

``test_batch_throughput`` times what production runs, the batch pass
alone: campaigns per second at 8/32/128 campaigns (``batch-throughput``
in ``BENCH_mbpta.json``).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.pwcet import MbptaConfig, apply_mbpta, apply_mbpta_batch

RUNS_PER_CAMPAIGN = 300
CAMPAIGN_COUNTS = (8, 32, 128)

#: Machine-readable benchmark trajectory, tracked across PRs (repo root).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_mbpta.json"


def _merge_bench_json(section: str, payload: dict) -> None:
    """Update one section of BENCH_mbpta.json (two tests share the file)."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    data["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _matrix(n_campaigns, n_runs=RUNS_PER_CAMPAIGN, seed=20160605):
    rng = np.random.default_rng(seed)
    return np.round(
        scipy_stats.gumbel_r.rvs(
            loc=20000.0, scale=300.0, size=(n_campaigns, n_runs), random_state=rng
        )
    )


def _assert_identical(batch_results, loop_results):
    for batch, loop in zip(batch_results, loop_results):
        assert batch.fit == loop.fit
        assert batch.pwcet == loop.pwcet
        assert batch.assessment == loop.assessment


def test_vectorized_vs_loop_fit_throughput(capsys):
    """Fit-assessment throughput of the batch pipeline (prints the table)."""
    config = MbptaConfig()
    speedups = {}
    rows = []
    with capsys.disabled():
        print("\npWCET pipeline: per-campaign apply_mbpta loop vs apply_mbpta_batch")
        print(f"({RUNS_PER_CAMPAIGN} runs per campaign, gumbel-pwm, default config)")
        print("campaigns | loop (s) | batch (s) | speedup")
        for n_campaigns in CAMPAIGN_COUNTS:
            matrix = _matrix(n_campaigns)
            samples = [list(row) for row in matrix]
            start = time.perf_counter()
            loop_results = [apply_mbpta(row, config=config) for row in samples]
            loop_seconds = time.perf_counter() - start
            start = time.perf_counter()
            batch_results = apply_mbpta_batch(samples, config=config)
            batch_seconds = time.perf_counter() - start
            _assert_identical(batch_results, loop_results)
            speedups[n_campaigns] = loop_seconds / batch_seconds
            rows.append({
                "campaigns": n_campaigns,
                "runs_per_campaign": RUNS_PER_CAMPAIGN,
                "loop_seconds": loop_seconds,
                "batch_seconds": batch_seconds,
                "speedup": speedups[n_campaigns],
            })
            print(
                f"{n_campaigns:9d} | {loop_seconds:8.3f} | {batch_seconds:9.3f} | "
                f"{speedups[n_campaigns]:.1f}x"
            )
    _merge_bench_json("fit-pipeline", {"estimator": "gumbel-pwm", "rows": rows})
    for n_campaigns in (32, 128):
        assert speedups[n_campaigns] >= 3.0, (
            f"batch pipeline only {speedups[n_campaigns]:.1f}x faster at "
            f"{n_campaigns} campaigns (acceptance bar is 3x)"
        )


def test_bootstrap_batch_throughput(capsys):
    """Same comparison with bootstrap CIs (resample refits dominate)."""
    config = MbptaConfig(bootstrap=50)
    matrix = _matrix(16, seed=7)
    samples = [list(row) for row in matrix]
    start = time.perf_counter()
    loop_results = [apply_mbpta(row, config=config) for row in samples]
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batch_results = apply_mbpta_batch(samples, config=config)
    batch_seconds = time.perf_counter() - start
    for batch, loop in zip(batch_results, loop_results):
        assert batch.pwcet_ci == loop.pwcet_ci
    _merge_bench_json(
        "bootstrap",
        {
            "resamples": 50,
            "campaigns": 16,
            "loop_seconds": loop_seconds,
            "batch_seconds": batch_seconds,
            "speedup": loop_seconds / batch_seconds,
        },
    )
    with capsys.disabled():
        print(
            f"\nbootstrap (50 resamples, 16 campaigns): loop {loop_seconds:.2f}s, "
            f"batch {batch_seconds:.2f}s "
            f"({loop_seconds / batch_seconds:.1f}x)"
        )


def test_batch_throughput(capsys):
    """Campaigns per second of one apply_mbpta_batch pass (best of 5)."""
    config = MbptaConfig()
    rows = []
    for n_campaigns in CAMPAIGN_COUNTS:
        samples = [list(row) for row in _matrix(n_campaigns)]
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            apply_mbpta_batch(samples, config=config)
            best = min(best, time.perf_counter() - start)
        rows.append({
            "campaigns": n_campaigns,
            "runs_per_campaign": RUNS_PER_CAMPAIGN,
            "batch_seconds": best,
            "campaigns_per_second": n_campaigns / best,
        })
    _merge_bench_json("batch-throughput", {"estimator": "gumbel-pwm", "rows": rows})
    with capsys.disabled():
        print(
            "\nbatch pipeline throughput: "
            + ", ".join(
                f"{row['campaigns']} campaigns {row['campaigns_per_second']:.0f}/s"
                for row in rows
            )
        )
    assert all(row["campaigns_per_second"] > 0 for row in rows)


@pytest.mark.parametrize("n_campaigns", CAMPAIGN_COUNTS)
def test_batch_pipeline_wallclock(benchmark, n_campaigns):
    """pytest-benchmark wall-clock of one batch pass per campaign count."""
    samples = [list(row) for row in _matrix(n_campaigns)]
    benchmark.pedantic(
        apply_mbpta_batch, args=(samples,), kwargs={"config": MbptaConfig()},
        rounds=1, iterations=1,
    )

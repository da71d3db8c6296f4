"""Integration tests for the per-table/figure paper studies.

These run at much smaller scale than the benchmark harnesses (few runs, few
benchmarks where possible) — they check wiring, determinism and the expected
qualitative relations, not the exact magnitudes recorded in EXPERIMENTS.md.
"""

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.study import run_study

SMALL = ExperimentSettings(runs=40, scale=0.25)


class TestSettings:
    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "77")
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        settings = ExperimentSettings.from_env()
        assert settings.runs == 77
        assert settings.scale == 0.5

    def test_repro_full_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert ExperimentSettings.from_env().runs == 1000

    def test_setup_builds_leon3_config(self):
        assert ExperimentSettings().setup("rm").il1.placement == "rm"


class TestTable1:
    def test_shape_of_results(self):
        result = run_study("table1").result
        assert set(result.asic) == {"RM", "hRP"}
        assert result.area_ratio > 5.0
        assert 0.1 < result.delay_reduction < 0.6
        assert result.fpga["hRP"]["frequency_mhz"] < result.fpga["RM"]["frequency_mhz"]
        assert "Table 1" in result.format()


class TestFig1:
    def test_curve_and_pwcet(self):
        result = run_study("fig1", SMALL, benchmark="a2time").result
        assert result.benchmark == "a2time"
        assert len(result.empirical) >= 1
        values = [value for value, _ in result.projected]
        assert values == sorted(values)
        assert result.pwcet[1e-15] >= result.pwcet[1e-12]
        assert "pWCET" in result.format()


class TestFig5:
    def test_rm_tail_is_below_hrp_tail(self):
        result = run_study("fig5", SMALL, footprint_bytes=20 * 1024, iterations=3).result
        assert set(result.samples) == {"rm", "hrp"}
        assert max(result.samples["rm"]) <= max(result.samples["hrp"])
        assert result.pwcet["rm"][1e-15] <= result.pwcet["hrp"][1e-15]
        assert "Figure 5" in result.format()


class TestAblation:
    def test_footprint_ablation_rows(self):
        result = run_study(
            "ablation_seg",
            ExperimentSettings(runs=30),
            footprints=(4 * 1024, 20 * 1024),
            iterations=2,
        ).result
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["rm_pwcet"] <= row["hrp_pwcet"] * 1.05
        assert "Ablation" in result.format()

    def test_replacement_ablation_rows(self):
        result = run_study("ablation_repl", ExperimentSettings(runs=25, scale=0.25)).result
        assert set(result.rows) == {"rm + random", "rm + lru", "hrp + random", "hrp + lru"}
        assert "placement x replacement" in result.format()


@pytest.mark.slow
class TestFullDrivers:
    """Slower end-to-end checks over the whole EEMBC suite at tiny scale."""

    def test_table2_all_benchmarks_pass_iid(self):
        result = run_study("table2", SMALL).result
        assert len(result.rows) == 11
        assert result.all_passed
        assert "Table 2" in result.format()

    def test_fig4a_rm_never_worse_than_hrp(self):
        result = run_study("fig4a", SMALL).result
        assert len(result.rows) == 11
        for benchmark, row in result.rows.items():
            assert row["ratio"] <= 1.05, benchmark
        assert 0.0 <= result.average_reduction <= 1.0

    def test_avg_performance_close_to_modulo(self):
        result = run_study("avg_perf", SMALL).result
        assert len(result.rows) == 11
        assert result.average_degradation < 0.10
        assert result.max_degradation < 0.25

"""Experiment settings and the result objects of the paper's tables/figures.

Each registered study (:mod:`repro.study.library`) folds its executed
scenarios into one of the result dataclasses below; every result carries
the raw numbers plus a ``format()`` method that renders the same
rows/series the paper reports.  Run an experiment with
``python -m repro study run <id>`` or, from Python,
``repro.study.run_study(<id>, settings, **params).result``; the benchmark
harnesses in ``benchmarks/`` do the latter (timing it with
pytest-benchmark), and ``EXPERIMENTS.md`` records paper-vs-measured values
produced this way.  The golden tests in ``tests/test_study.py`` pin every
``format()`` output byte for byte.

Experiment ids (see DESIGN.md):

* ``table1`` — ASIC and FPGA implementation results.
* ``table2`` — Wald-Wolfowitz / KS i.i.d. results for the EEMBC stand-ins.
* ``fig1``   — illustrative pWCET/CCDF projection.
* ``fig4a``  — RM pWCET normalised to hRP per EEMBC benchmark.
* ``fig4b``  — RM pWCET versus the deterministic high-water mark.
* ``fig5``   — execution-time distributions and pWCET curves of the
  synthetic kernel.
* ``avg_perf`` — average performance of RM versus modulo.
* ``ablation_seg`` / ``ablation_repl`` — the two ablations called out in
  DESIGN.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import HierarchyConfig
from ..engine import DEFAULT_ENGINE
from ..pwcet.protocol import MbptaConfig
from ..platform.leon3 import Leon3Parameters, platform_setup
from .report import format_ccdf, format_histogram, format_table

__all__ = [
    "ExperimentSettings",
    "Table1Result",
    "Table2Result",
    "Fig1Result",
    "Fig4aResult",
    "Fig4bResult",
    "Fig5Result",
    "AveragePerformanceResult",
    "FootprintAblationResult",
    "ReplacementAblationResult",
]


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSettings:
    """Campaign size and reproducibility knobs shared by all experiments.

    The paper collects 1000 measurement runs per benchmark; the default here
    is 300 to keep a full benchmark sweep tractable on a laptop-class
    machine running a pure-Python simulator.  Set the environment variable
    ``REPRO_FULL=1`` (or ``REPRO_RUNS=<n>``) to run at paper scale.

    ``engine`` names a registered simulation backend (see
    :func:`repro.engine.available_engines`).  ``jobs`` selects how many
    workers drain a study's campaigns through the result store's work
    queue (:mod:`repro.exec`), whole campaigns per worker: ``1`` (default)
    is the calling process, ``0`` means one worker process per CPU, and
    any other positive value is taken literally.  Without a store the
    study drains through a temporary one.  :meth:`repro.study.Study.run`
    passes both once to :func:`~repro.study.runner.execute_scenarios`; no
    scenario carries them.  Campaigns are bit-exact for every ``jobs``
    value and every bit-exact engine, so both knobs only affect
    wall-clock time.

    ``estimator`` names a registered pWCET estimator (see
    :func:`repro.pwcet.available_estimators`).  Left empty, the MBPTA
    config default (``gumbel-pwm``) applies — the historical behaviour.
    With ``secondary_cutoff`` and ``cutoff`` it makes the one analysis
    config of a study run (:meth:`mbpta_config`).

    ``shard_size`` (CLI ``--shard-size``) is the width in lanes of the
    shards each campaign is split into; ``None`` (default) plans one shard
    per campaign of at most one engine batch, split only when a study has
    fewer campaigns than workers.  Shards are persisted individually, so
    rerunning a killed ``study run`` executes only the missing ones, and
    campaigns are bit-exact with serial execution for any width.
    """

    runs: int = 300
    master_seed: int = 20160605
    scale: float = 1.0
    engine: str = DEFAULT_ENGINE
    jobs: int = 1
    estimator: str = ""
    shard_size: Optional[int] = None
    cutoff: float = 1e-15
    secondary_cutoff: float = 1e-12
    parameters: Leon3Parameters = field(default_factory=Leon3Parameters)

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentSettings":
        """Build settings from ``REPRO_FULL`` / ``REPRO_RUNS`` / ``REPRO_SCALE``,
        the campaign-size knobs of the flagless benchmark harnesses."""
        settings = cls(**overrides)
        if os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes"):
            settings = replace(settings, runs=1000)
        runs = os.environ.get("REPRO_RUNS", "").strip()
        if runs:
            settings = replace(settings, runs=int(runs))
        scale = os.environ.get("REPRO_SCALE", "").strip()
        if scale:
            settings = replace(settings, scale=float(scale))
        return settings

    def mbpta_config(self) -> MbptaConfig:
        """The analysis config of every campaign a study runs: pWCETs at
        both cutoffs, by ``estimator`` when one is set."""
        config = MbptaConfig(
            exceedance_probabilities=(self.secondary_cutoff, self.cutoff)
        )
        return replace(config, fit_method=self.estimator) if self.estimator else config

    def setup(self, name: str) -> HierarchyConfig:
        """The named LEON3 cache setup with this experiment's parameters."""
        return platform_setup(name, parameters=self.parameters)


# ---------------------------------------------------------------------------
# Table 1 — ASIC & FPGA implementation results
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    """Reproduction of Table 1."""

    asic: Dict[str, Dict[str, object]]
    fpga: Dict[str, Dict[str, object]]
    area_ratio: float
    delay_reduction: float

    def format(self) -> str:
        asic_rows = [
            (
                name,
                values["logic_area_um2"],
                values["total_area_um2"],
                values["delay_ns"],
            )
            for name, values in self.asic.items()
        ]
        fpga_rows = [
            (name, values["occupancy_percent"], values["frequency_mhz"])
            for name, values in self.fpga.items()
        ]
        parts = [
            format_table(
                ["module", "logic area (um^2)", "area incl. tag bits", "delay (ns)"],
                asic_rows,
                title="Table 1 (ASIC, 45nm-class model, 128-set cache)",
            ),
            "",
            format_table(
                ["design", "occupancy (%)", "frequency (MHz)"],
                fpga_rows,
                title="Table 1 (FPGA, Stratix IV-class model, all caches)",
            ),
            "",
            f"RM/hRP area ratio: {self.area_ratio:.1f}x smaller; "
            f"delay reduction: {self.delay_reduction * 100:.0f}%",
        ]
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Table 2 — MBPTA compliance (WW and KS) for EEMBC under RM
# ---------------------------------------------------------------------------

@dataclass
class Table2Result:
    """Reproduction of Table 2: i.i.d. admission tests under Random Modulo."""

    rows: Dict[str, Dict[str, float]]
    ww_critical: float = 1.96
    ks_threshold: float = 0.05

    @property
    def all_passed(self) -> bool:
        return all(row["passed"] for row in self.rows.values())

    def format(self) -> str:
        table_rows = [
            (
                benchmark,
                round(row["ww"], 2),
                round(row["ks"], 2),
                round(row["et"], 3),
                "yes" if row["passed"] else "NO",
            )
            for benchmark, row in self.rows.items()
        ]
        return format_table(
            ["benchmark", "WW", "KS p-value", "ET", "i.i.d. ok"],
            table_rows,
            title=(
                "Table 2: independence (WW < 1.96) and identical distribution "
                "(KS p > 0.05) under RM"
            ),
        )


# ---------------------------------------------------------------------------
# Figure 1 — illustrative pWCET projection
# ---------------------------------------------------------------------------

@dataclass
class Fig1Result:
    """Reproduction of Figure 1: an EVT projection in CCDF form."""

    benchmark: str
    empirical: List[Tuple[float, float]]
    projected: List[Tuple[float, float]]
    pwcet: Dict[float, float]

    def format(self) -> str:
        parts = [
            format_ccdf(self.empirical[-10:], title=f"Empirical CCDF tail ({self.benchmark})"),
            "",
            format_ccdf(self.projected, title="Projected pWCET curve (Gumbel tail)"),
            "",
            format_table(
                ["cutoff probability", "pWCET (cycles)"],
                [(f"{p:g}", f"{v:,.0f}") for p, v in sorted(self.pwcet.items(), reverse=True)],
            ),
        ]
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Figure 4(a) — RM pWCET normalised to hRP
# ---------------------------------------------------------------------------

@dataclass
class Fig4aResult:
    """Reproduction of Figure 4(a)."""

    rows: Dict[str, Dict[str, float]]
    cutoff: float
    secondary_cutoff: float

    @property
    def average_reduction(self) -> float:
        """Mean pWCET reduction of RM w.r.t. hRP at the primary cutoff."""
        ratios = [row["ratio"] for row in self.rows.values()]
        return 1.0 - sum(ratios) / len(ratios)

    @property
    def best_reduction(self) -> float:
        return 1.0 - min(row["ratio"] for row in self.rows.values())

    @property
    def worst_reduction(self) -> float:
        return 1.0 - max(row["ratio"] for row in self.rows.values())

    def format(self) -> str:
        table_rows = [
            (
                benchmark,
                f"{row['pwcet_rm']:,.0f}",
                f"{row['pwcet_hrp']:,.0f}",
                round(row["ratio"], 3),
                f"{(1.0 - row['ratio']) * 100:.1f}%",
            )
            for benchmark, row in self.rows.items()
        ]
        summary = (
            f"average pWCET reduction of RM vs hRP @ {self.cutoff:g}: "
            f"{self.average_reduction * 100:.1f}% "
            f"(best {self.best_reduction * 100:.1f}%, worst {self.worst_reduction * 100:.1f}%)"
        )
        return "\n".join(
            [
                format_table(
                    ["benchmark", "pWCET RM", "pWCET hRP", "RM/hRP", "reduction"],
                    table_rows,
                    title=f"Figure 4(a): RM pWCET normalised to hRP (cutoff {self.cutoff:g})",
                ),
                "",
                summary,
            ]
        )


# ---------------------------------------------------------------------------
# Figure 4(b) — RM pWCET versus the deterministic high-water mark
# ---------------------------------------------------------------------------

@dataclass
class Fig4bResult:
    """Reproduction of Figure 4(b)."""

    rows: Dict[str, Dict[str, float]]
    cutoff: float
    engineering_margin: float = 0.20

    @property
    def worst_ratio(self) -> float:
        return max(row["pwcet_over_hwm"] for row in self.rows.values())

    def format(self) -> str:
        table_rows = [
            (
                benchmark,
                f"{row['pwcet_rm']:,.0f}",
                f"{row['det_hwm']:,.0f}",
                f"{(row['pwcet_over_hwm'] - 1.0) * 100:+.1f}%",
                "yes" if row["within_margin"] else "NO",
            )
            for benchmark, row in self.rows.items()
        ]
        return "\n".join(
            [
                format_table(
                    [
                        "benchmark",
                        "pWCET RM",
                        "deterministic hwm",
                        "pWCET vs hwm",
                        f"below hwm+{self.engineering_margin * 100:.0f}%",
                    ],
                    table_rows,
                    title="Figure 4(b): RM pWCET versus deterministic high-water mark",
                ),
                "",
                f"worst pWCET/hwm ratio: {(self.worst_ratio - 1.0) * 100:+.1f}% "
                f"(industrial margin is +{self.engineering_margin * 100:.0f}%)",
            ]
        )


# ---------------------------------------------------------------------------
# Figure 5 — synthetic kernel distributions and pWCET curves
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    """Reproduction of Figure 5 (plus the 8 KB / 160 KB variants of the text)."""

    footprint_bytes: int
    samples: Dict[str, List[int]]
    pwcet: Dict[str, Dict[float, float]]
    curves: Dict[str, List[Tuple[float, float]]]

    def format(self) -> str:
        parts = []
        for setup, values in self.samples.items():
            parts.append(
                format_histogram(
                    values,
                    bins=15,
                    title=(
                        f"Figure 5: execution-time distribution, "
                        f"{self.footprint_bytes // 1024}KB footprint, {setup}"
                    ),
                )
            )
            parts.append("")
        pwcet_rows = []
        for setup, cutoffs in self.pwcet.items():
            for probability, value in sorted(cutoffs.items(), reverse=True):
                pwcet_rows.append((setup, f"{probability:g}", f"{value:,.0f}"))
        parts.append(
            format_table(
                ["setup", "cutoff", "pWCET (cycles)"],
                pwcet_rows,
                title="Figure 5(c): pWCET estimates",
            )
        )
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Average performance (Section 4.4)
# ---------------------------------------------------------------------------

@dataclass
class AveragePerformanceResult:
    """RM average performance relative to deterministic modulo placement."""

    rows: Dict[str, Dict[str, float]]

    @property
    def average_degradation(self) -> float:
        values = [row["degradation"] for row in self.rows.values()]
        return sum(values) / len(values)

    @property
    def max_degradation(self) -> float:
        return max(row["degradation"] for row in self.rows.values())

    def format(self) -> str:
        table_rows = [
            (
                benchmark,
                f"{row['modulo_mean']:,.0f}",
                f"{row['rm_mean']:,.0f}",
                f"{row['degradation'] * 100:+.2f}%",
            )
            for benchmark, row in self.rows.items()
        ]
        return "\n".join(
            [
                format_table(
                    ["benchmark", "modulo mean", "RM mean", "RM vs modulo"],
                    table_rows,
                    title="Section 4.4: average performance of RM vs modulo placement",
                ),
                "",
                f"average degradation {self.average_degradation * 100:.2f}%, "
                f"maximum {self.max_degradation * 100:.2f}%",
            ]
        )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md)
# ---------------------------------------------------------------------------

@dataclass
class FootprintAblationResult:
    """Effect of the data footprint on RM vs hRP (segment preservation)."""

    rows: List[Dict[str, float]]
    cutoff: float

    def format(self) -> str:
        table_rows = [
            (
                f"{int(row['footprint_bytes']) // 1024}KB",
                f"{row['rm_mean']:,.0f}",
                f"{row['hrp_mean']:,.0f}",
                f"{row['rm_pwcet']:,.0f}",
                f"{row['hrp_pwcet']:,.0f}",
                round(row["pwcet_ratio"], 3),
            )
            for row in self.rows
        ]
        return format_table(
            ["footprint", "RM mean", "hRP mean", "RM pWCET", "hRP pWCET", "RM/hRP pWCET"],
            table_rows,
            title=f"Ablation: footprint sweep (cutoff {self.cutoff:g})",
        )


@dataclass
class ReplacementAblationResult:
    """Interaction between placement and replacement policies."""

    rows: Dict[str, Dict[str, float]]
    cutoff: float

    def format(self) -> str:
        table_rows = [
            (
                configuration,
                f"{row['mean']:,.0f}",
                f"{row['hwm']:,.0f}",
                f"{row['pwcet']:,.0f}",
            )
            for configuration, row in self.rows.items()
        ]
        return format_table(
            ["configuration", "mean", "hwm", f"pWCET@{self.cutoff:g}"],
            table_rows,
            title="Ablation: placement x replacement interaction",
        )

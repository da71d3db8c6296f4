"""Analysis layer: measurement campaigns, HWM baseline, experiment settings and results."""

from .campaign import CampaignResult, run_campaign, run_layout_campaign
from .experiments import (
    AveragePerformanceResult,
    ExperimentSettings,
    Fig1Result,
    Fig4aResult,
    Fig4bResult,
    Fig5Result,
    FootprintAblationResult,
    ReplacementAblationResult,
    Table1Result,
    Table2Result,
)
from .hwm import HwmBound, high_water_mark, industrial_bound
from .report import format_ccdf, format_histogram, format_ratio, format_table

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_layout_campaign",
    "AveragePerformanceResult",
    "ExperimentSettings",
    "Fig1Result",
    "Fig4aResult",
    "Fig4bResult",
    "Fig5Result",
    "FootprintAblationResult",
    "ReplacementAblationResult",
    "Table1Result",
    "Table2Result",
    "HwmBound",
    "high_water_mark",
    "industrial_bound",
    "format_ccdf",
    "format_histogram",
    "format_ratio",
    "format_table",
]

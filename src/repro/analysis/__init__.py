"""Analysis layer: measurement campaigns, HWM baseline, experiment settings and results.

The names below load on first use (:mod:`repro._lazy`), so reading a store
(which needs :mod:`repro.analysis.campaign`) does not import the
experiment result classes of :mod:`repro.analysis.experiments`.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CampaignResult": "campaign",
    "run_campaign": "campaign",
    "run_layout_campaign": "campaign",
    "AveragePerformanceResult": "experiments",
    "ExperimentSettings": "experiments",
    "Fig1Result": "experiments",
    "Fig4aResult": "experiments",
    "Fig4bResult": "experiments",
    "Fig5Result": "experiments",
    "FootprintAblationResult": "experiments",
    "ReplacementAblationResult": "experiments",
    "Table1Result": "experiments",
    "Table2Result": "experiments",
    "HwmBound": "hwm",
    "high_water_mark": "hwm",
    "industrial_bound": "hwm",
    "format_ccdf": "report",
    "format_histogram": "report",
    "format_table": "report",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

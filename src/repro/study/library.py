"""The nine paper experiments, expressed as registered studies.

Each study is a (planner, builder) pair: the planner declares the scenario
grid — the workloads, hierarchies, run counts and per-campaign seed
offsets of the paper's evaluation — and the builder folds the executed
:class:`~repro.study.resultset.ResultSet` into the experiment's result
dataclass from :mod:`repro.analysis.experiments`.  The ``--format text``
rendering of every study is pinned byte for byte by the golden tests in
``tests/test_study.py``.

:mod:`repro.study.registry` registers :data:`BUILTIN_STUDIES` before its
first lookup.  Only table1 reads the hardware cost models, so
``_build_table1`` imports :mod:`repro.hardware` when it runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.experiments import (
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
from ..analysis.hwm import industrial_bound
from ..core.placement import PlacementGeometry
from ..pwcet import empirical_ccdf
from ..workloads.eembc import eembc_kernel_names
from ..workloads.synthetic import SYNTHETIC_FOOTPRINTS
from .registry import Study, StudyContext
from .scenario import HierarchySpec, Scenario, Sweep, WorkloadSpec

__all__ = ["BUILTIN_STUDIES"]


def _base_scenario(
    settings: ExperimentSettings,
    workload: WorkloadSpec,
    hierarchy: HierarchySpec,
    runs: Optional[int] = None,
) -> Scenario:
    """A scenario carrying the settings' execution knobs."""
    return Scenario(
        workload=workload,
        hierarchy=hierarchy,
        runs=runs if runs is not None else settings.runs,
        master_seed=settings.master_seed,
        engine=settings.engine,
        jobs=settings.jobs,
    )


def _benchmark_axis(settings: ExperimentSettings) -> List[Dict[str, object]]:
    """One axis entry per EEMBC stand-in, with its per-benchmark seed offset
    (``master_seed + enumerate offset``)."""
    return [
        {
            "workload": WorkloadSpec.eembc(benchmark, scale=settings.scale),
            "seed_offset": offset,
        }
        for offset, benchmark in enumerate(eembc_kernel_names())
    ]


# ---------------------------------------------------------------------------
# table1 — ASIC & FPGA implementation results (purely analytical)
# ---------------------------------------------------------------------------

def _plan_table1(settings: ExperimentSettings, **params) -> List[Scenario]:
    return []  # no measurement campaigns; the builder computes cost models


def _build_table1(context: StudyContext) -> Table1Result:
    from ..hardware import FpgaDevice, hrp_module_cost, integrate_on_fpga, rm_module_cost

    num_sets = int(context.params.get("num_sets", 128))
    line_size = int(context.params.get("line_size", 32))
    device = context.params.get("device")
    geometry = PlacementGeometry(num_sets=num_sets, line_size=line_size)
    hrp = hrp_module_cost(geometry)
    rm = rm_module_cost(geometry)
    fpga_hrp = integrate_on_fpga(hrp, device=device)
    fpga_rm = integrate_on_fpga(rm, device=device)
    baseline = device or FpgaDevice()
    fpga = {
        "baseline": {
            "occupancy_percent": round(baseline.baseline_occupancy * 100, 1),
            "frequency_mhz": baseline.baseline_frequency_mhz,
        },
        "RM": fpga_rm.as_dict(),
        "hRP": fpga_hrp.as_dict(),
    }
    return Table1Result(
        asic={"RM": rm.as_dict(), "hRP": hrp.as_dict()},
        fpga=fpga,
        area_ratio=hrp.logic_area_um2 / rm.logic_area_um2,
        delay_reduction=1.0 - rm.delay_ns / hrp.delay_ns,
    )


# ---------------------------------------------------------------------------
# table2 — MBPTA compliance (WW and KS) for EEMBC under RM
# ---------------------------------------------------------------------------

def _plan_table2(settings: ExperimentSettings) -> Sweep:
    base = _base_scenario(
        settings,
        WorkloadSpec.eembc(eembc_kernel_names()[0], scale=settings.scale),
        HierarchySpec.named("rm", settings.parameters),
    )
    return Sweep(base=base, axes={"benchmark": _benchmark_axis(settings)})


def _build_table2(context: StudyContext) -> Table2Result:
    rows: Dict[str, Dict[str, float]] = {}
    for benchmark in eembc_kernel_names():
        assessment = context.results.mbpta(f"{benchmark}/rm").assessment
        rows[benchmark] = {
            "ww": assessment.independence.statistic,
            "ks": assessment.identical_distribution.p_value,
            "et": assessment.gumbel_convergence.statistic,
            # Table 2 of the paper reports the WW and KS outcomes; the ET
            # statistic is kept as an informative extra column.
            "passed": float(
                assessment.independence.passed
                and assessment.identical_distribution.passed
            ),
        }
    return Table2Result(rows=rows)


# ---------------------------------------------------------------------------
# fig1 — illustrative pWCET projection
# ---------------------------------------------------------------------------

def _plan_fig1(settings: ExperimentSettings, benchmark: str = "a2time") -> List[Scenario]:
    return [
        _base_scenario(
            settings,
            WorkloadSpec.eembc(benchmark, scale=settings.scale),
            HierarchySpec.named("rm", settings.parameters),
        )
    ]


def _build_fig1(context: StudyContext) -> Fig1Result:
    benchmark = str(context.params.get("benchmark", "a2time"))
    settings = context.settings
    label = f"{benchmark}/rm"
    result = context.results.mbpta(label)
    campaign = context.results.campaign(label)
    projected = result.curve.ccdf_points(min_probability=1e-16, points_per_decade=1)
    cutoffs = (1e-3, 1e-6, 1e-9, settings.secondary_cutoff, settings.cutoff)
    return Fig1Result(
        benchmark=benchmark,
        empirical=empirical_ccdf(campaign.execution_times),
        projected=projected,
        pwcet={probability: result.pwcet_at(probability) for probability in cutoffs},
    )


# ---------------------------------------------------------------------------
# fig4a — RM pWCET normalised to hRP
# ---------------------------------------------------------------------------

def _plan_fig4a(settings: ExperimentSettings) -> Sweep:
    base = _plan_table2(settings).base
    return Sweep(
        base=base,
        axes={
            "benchmark": _benchmark_axis(settings),
            "setup": [
                {"hierarchy": HierarchySpec.named("rm", settings.parameters)},
                # hRP campaigns draw seeds apart from the rm ones; the
                # goldens pin the 1000 offset.
                {
                    "hierarchy": HierarchySpec.named("hrp", settings.parameters),
                    "seed_offset": 1000,
                },
            ],
        },
    )


def _build_fig4a(context: StudyContext) -> Fig4aResult:
    settings = context.settings
    rows: Dict[str, Dict[str, float]] = {}
    for benchmark in eembc_kernel_names():
        rm_result = context.results.mbpta(f"{benchmark}/rm")
        hrp_result = context.results.mbpta(f"{benchmark}/hrp")
        pwcet_rm = rm_result.pwcet_at(settings.cutoff)
        pwcet_hrp = hrp_result.pwcet_at(settings.cutoff)
        rows[benchmark] = {
            "pwcet_rm": pwcet_rm,
            "pwcet_hrp": pwcet_hrp,
            "ratio": pwcet_rm / pwcet_hrp,
            "pwcet_rm_secondary": rm_result.pwcet_at(settings.secondary_cutoff),
            "pwcet_hrp_secondary": hrp_result.pwcet_at(settings.secondary_cutoff),
        }
    return Fig4aResult(
        rows=rows, cutoff=settings.cutoff, secondary_cutoff=settings.secondary_cutoff
    )


# ---------------------------------------------------------------------------
# fig4b — RM pWCET versus the deterministic high-water mark
# ---------------------------------------------------------------------------

def _plan_fig4b(settings: ExperimentSettings) -> List[Scenario]:
    layout_runs = max(min(settings.runs, 200), 20)
    scenarios: List[Scenario] = []
    for offset, benchmark in enumerate(eembc_kernel_names()):
        workload = WorkloadSpec.eembc(benchmark, scale=settings.scale)
        scenarios.append(
            replace(
                _base_scenario(
                    settings, workload, HierarchySpec.named("rm", settings.parameters)
                ),
                seed_offset=offset,
            )
        )
        # The deterministic baseline varies memory layouts, not seeds.
        scenarios.append(
            replace(
                _base_scenario(
                    settings,
                    workload,
                    HierarchySpec.named("modulo", settings.parameters),
                    runs=layout_runs,
                ),
                campaign="layouts",
                seed_offset=5000 + offset,
                label=f"{benchmark}/modulo-hwm",
            )
        )
    return scenarios


def _build_fig4b(context: StudyContext) -> Fig4bResult:
    settings = context.settings
    rows: Dict[str, Dict[str, float]] = {}
    for benchmark in eembc_kernel_names():
        pwcet_rm = context.results.mbpta(f"{benchmark}/rm").pwcet_at(settings.cutoff)
        deterministic = context.results.campaign(f"{benchmark}/modulo-hwm")
        bound = industrial_bound(deterministic.execution_times)
        rows[benchmark] = {
            "pwcet_rm": pwcet_rm,
            "det_hwm": bound.hwm,
            "pwcet_over_hwm": bound.pwcet_ratio(pwcet_rm),
            "within_margin": float(bound.within_margin(pwcet_rm)),
        }
    return Fig4bResult(rows=rows, cutoff=settings.cutoff)


# ---------------------------------------------------------------------------
# fig5 — synthetic kernel distributions and pWCET curves
# ---------------------------------------------------------------------------

def _plan_fig5(
    settings: ExperimentSettings,
    footprint_bytes: int = SYNTHETIC_FOOTPRINTS["fits_l2"],
    iterations: int = 12,
    setups: Sequence[str] = ("rm", "hrp"),
) -> Sweep:
    # 12 traversals (the paper uses 50) bound the trace length; the relative
    # behaviour of the placement policies does not depend on it.
    base = _base_scenario(
        settings,
        WorkloadSpec.synthetic(footprint_bytes, iterations),
        HierarchySpec.named(setups[0], settings.parameters),
    )
    return Sweep(
        base=base,
        axes={
            "setup": [
                {"hierarchy": HierarchySpec.named(setup, settings.parameters),
                 "label": setup}
                for setup in setups
            ]
        },
    )


def _build_fig5(context: StudyContext) -> Fig5Result:
    settings = context.settings
    footprint_bytes = int(
        context.params.get("footprint_bytes", SYNTHETIC_FOOTPRINTS["fits_l2"])
    )
    setups = tuple(context.params.get("setups", ("rm", "hrp")))
    samples: Dict[str, List[int]] = {}
    pwcet: Dict[str, Dict[float, float]] = {}
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for setup in setups:
        campaign = context.results.campaign(setup)
        result = context.results.mbpta(setup)
        samples[setup] = campaign.execution_times
        pwcet[setup] = {
            settings.secondary_cutoff: result.pwcet_at(settings.secondary_cutoff),
            settings.cutoff: result.pwcet_at(settings.cutoff),
        }
        curves[setup] = result.curve.ccdf_points(
            min_probability=1e-16, points_per_decade=1
        )
    return Fig5Result(
        footprint_bytes=footprint_bytes, samples=samples, pwcet=pwcet, curves=curves
    )


# ---------------------------------------------------------------------------
# avg_perf — average performance of RM versus modulo (Section 4.4)
# ---------------------------------------------------------------------------

def _plan_avg_perf(settings: ExperimentSettings) -> List[Scenario]:
    scenarios: List[Scenario] = []
    for offset, benchmark in enumerate(eembc_kernel_names()):
        workload = WorkloadSpec.eembc(benchmark, scale=settings.scale)
        scenarios.append(
            replace(
                _base_scenario(
                    settings, workload, HierarchySpec.named("rm", settings.parameters)
                ),
                seed_offset=offset,
            )
        )
        # Deterministic modulo placement: one run suffices (seed-invariant).
        scenarios.append(
            _base_scenario(
                settings,
                workload,
                HierarchySpec.named("modulo", settings.parameters),
                runs=1,
            )
        )
    return scenarios


def _build_avg_perf(context: StudyContext) -> AveragePerformanceResult:
    rows: Dict[str, Dict[str, float]] = {}
    for benchmark in eembc_kernel_names():
        rm_mean = context.results.campaign(f"{benchmark}/rm").mean
        modulo_mean = context.results.campaign(f"{benchmark}/modulo").mean
        rows[benchmark] = {
            "modulo_mean": modulo_mean,
            "rm_mean": rm_mean,
            "degradation": rm_mean / modulo_mean - 1.0,
        }
    return AveragePerformanceResult(rows=rows)


# ---------------------------------------------------------------------------
# ablation_seg — footprint sweep (RM vs hRP, segment preservation)
# ---------------------------------------------------------------------------

def _plan_ablation_seg(
    settings: ExperimentSettings,
    footprints: Sequence[int] = (4 * 1024, 8 * 1024, 20 * 1024, 40 * 1024),
    iterations: int = 8,
) -> Sweep:
    base = _base_scenario(
        settings,
        WorkloadSpec.synthetic(int(footprints[0]), iterations),
        HierarchySpec.named("rm", settings.parameters),
    )
    return Sweep(
        base=base,
        axes={
            "footprint": [
                {"workload": WorkloadSpec.synthetic(int(footprint), iterations)}
                for footprint in footprints
            ],
            "setup": [
                {"hierarchy": HierarchySpec.named(setup, settings.parameters)}
                for setup in ("rm", "hrp")
            ],
        },
    )


def _build_ablation_seg(context: StudyContext) -> FootprintAblationResult:
    settings = context.settings
    footprints = context.params.get(
        "footprints", (4 * 1024, 8 * 1024, 20 * 1024, 40 * 1024)
    )
    iterations = int(context.params.get("iterations", 8))
    rows: List[Dict[str, float]] = []
    for footprint in footprints:
        workload_label = WorkloadSpec.synthetic(int(footprint), iterations).label
        row: Dict[str, float] = {"footprint_bytes": float(footprint)}
        for setup in ("rm", "hrp"):
            label = f"{workload_label}/{setup}"
            row[f"{setup}_mean"] = context.results.campaign(label).mean
            row[f"{setup}_pwcet"] = context.results.mbpta(label).pwcet_at(
                settings.cutoff
            )
        row["pwcet_ratio"] = row["rm_pwcet"] / row["hrp_pwcet"]
        rows.append(row)
    return FootprintAblationResult(rows=rows, cutoff=settings.cutoff)


# ---------------------------------------------------------------------------
# ablation_repl — placement x replacement interaction
# ---------------------------------------------------------------------------

#: Configuration label -> (L1 placement, L1 replacement); the L2 keeps hRP
#: with its default random replacement.
_REPLACEMENT_CONFIGURATIONS: Dict[str, Tuple[str, str]] = {
    "rm + random": ("rm", "random"),
    "rm + lru": ("rm", "lru"),
    "hrp + random": ("hrp", "random"),
    "hrp + lru": ("hrp", "lru"),
}


def _plan_ablation_repl(
    settings: ExperimentSettings, benchmark: str = "tblook"
) -> List[Scenario]:
    workload = WorkloadSpec.eembc(benchmark, scale=settings.scale)
    return [
        replace(
            _base_scenario(
                settings,
                workload,
                HierarchySpec.custom(
                    l1_placement=placement,
                    l2_placement="hrp",
                    l1_replacement=replacement,
                    parameters=settings.parameters,
                ),
            ),
            label=label,
        )
        for label, (placement, replacement) in _REPLACEMENT_CONFIGURATIONS.items()
    ]


def _build_ablation_repl(context: StudyContext) -> ReplacementAblationResult:
    settings = context.settings
    rows: Dict[str, Dict[str, float]] = {}
    for label in _REPLACEMENT_CONFIGURATIONS:
        campaign = context.results.campaign(label)
        rows[label] = {
            "mean": campaign.mean,
            "hwm": float(campaign.high_water_mark),
            "pwcet": context.results.mbpta(label).pwcet_at(settings.cutoff),
        }
    return ReplacementAblationResult(rows=rows, cutoff=settings.cutoff)


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

#: The paper's studies, in the order the registry holds them.
BUILTIN_STUDIES = (
    Study(
        name="table1",
        description="ASIC & FPGA implementation results",
        planner=_plan_table1,
        builder=_build_table1,
        min_runs=0,
    ),
    Study(
        name="table2",
        description="MBPTA compliance (WW/KS) for EEMBC under RM",
        planner=_plan_table2,
        builder=_build_table2,
    ),
    Study(
        name="fig1",
        description="EVT projection / pWCET curve",
        planner=_plan_fig1,
        builder=_build_fig1,
    ),
    Study(
        name="fig4a",
        description="RM pWCET normalised to hRP",
        planner=_plan_fig4a,
        builder=_build_fig4a,
    ),
    Study(
        name="fig4b",
        description="RM pWCET vs deterministic high-water mark",
        planner=_plan_fig4b,
        builder=_build_fig4b,
    ),
    Study(
        name="fig5",
        description="Synthetic kernel distributions and pWCET",
        planner=_plan_fig5,
        builder=_build_fig5,
    ),
    Study(
        name="avg_perf",
        description="Average performance of RM vs modulo",
        planner=_plan_avg_perf,
        builder=_build_avg_perf,
        min_runs=1,
    ),
    Study(
        name="ablation_seg",
        description="Footprint sweep ablation",
        planner=_plan_ablation_seg,
        builder=_build_ablation_seg,
    ),
    Study(
        name="ablation_repl",
        description="Replacement-policy ablation",
        planner=_plan_ablation_repl,
        builder=_build_ablation_repl,
    ),
)

"""Reproduction of *Random Modulo: a New Processor Cache Design for
Real-Time Critical Systems* (Hernández et al., DAC 2016).

The package is organised in layers (see DESIGN.md):

* :mod:`repro.core` — the paper's contribution: placement policies (modulo,
  XOR, hRP, Random Modulo), permutation networks and hardware-style PRNGs.
* :mod:`repro.cache` — memory-access traces, set-associative cache and
  hierarchy models, and the compiled-trace representation the campaign
  engines replay.
* :mod:`repro.engine` — simulation engine registry and backends (the
  vectorized ``numpy`` batch engine, the default, and the ``reference``
  oracle).
* :mod:`repro.workloads` — EEMBC Automotive stand-ins and the synthetic
  vector kernel.
* :mod:`repro.pwcet` — the pWCET analysis subsystem: EVT/Gumbel fitting,
  i.i.d. admission tests, the estimator registry (``gumbel-pwm``,
  ``gumbel-mle``, ``exponential-excess``) and the vectorized batch MBPTA
  pipeline.
* :mod:`repro.hardware` — ASIC and FPGA cost models for the placement
  modules (Table 1).
* :mod:`repro.analysis` — measurement campaigns, experiment settings and
  the result object of each paper table/figure.
* :mod:`repro.study` — declarative scenarios, sweeps and registered
  studies (one per paper table/figure, run with :func:`run_study`),
  executed through a content-hash-keyed on-disk result store.
* :mod:`repro.platform` — LEON3-like platform configuration factories.

Quickstart
----------
>>> from repro import platform_setup, eembc_trace, run_campaign, apply_mbpta
>>> trace = eembc_trace("a2time")
>>> campaign = run_campaign(trace, platform_setup("rm"), runs=100, master_seed=1)
>>> result = apply_mbpta(campaign.execution_times)
>>> round(result.pwcet_at(1e-15))  # doctest: +SKIP
"""

from .analysis import (
    CampaignResult,
    ExperimentSettings,
    high_water_mark,
    industrial_bound,
    run_campaign,
    run_layout_campaign,
)
from .cache import (
    CacheConfig,
    CacheHierarchy,
    HierarchyConfig,
    MemoryTimings,
    SetAssociativeCache,
    Trace,
)
from .core import (
    HashRandomPlacement,
    ModuloPlacement,
    MultiLfsrPrng,
    PlacementGeometry,
    RandomModuloPlacement,
    make_placement,
)
from .engine import (
    available_engines,
    engine_capabilities,
    get_engine,
    register_engine,
)
from .pwcet import (
    Estimator,
    MbptaConfig,
    MbptaResult,
    apply_mbpta,
    apply_mbpta_batch,
    available_estimators,
    compare_estimators,
    estimator_capabilities,
    fit_gumbel,
    get_estimator,
    register_estimator,
)
from .platform import Leon3Parameters, leon3_hierarchy, platform_setup
from .study import (
    HierarchySpec,
    ResultSet,
    ResultStore,
    Scenario,
    Study,
    Sweep,
    WorkloadSpec,
    available_studies,
    get_study,
    register_study,
    run_study,
)
from .workloads import (
    MemoryLayout,
    eembc_kernel_names,
    eembc_trace,
    synthetic_vector_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "CampaignResult",
    "ExperimentSettings",
    "high_water_mark",
    "industrial_bound",
    "run_campaign",
    "run_layout_campaign",
    # cache
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "MemoryTimings",
    "SetAssociativeCache",
    "Trace",
    # core
    "HashRandomPlacement",
    "ModuloPlacement",
    "MultiLfsrPrng",
    "PlacementGeometry",
    "RandomModuloPlacement",
    "make_placement",
    # engine
    "available_engines",
    "engine_capabilities",
    "get_engine",
    "register_engine",
    # pwcet
    "Estimator",
    "MbptaConfig",
    "MbptaResult",
    "apply_mbpta",
    "apply_mbpta_batch",
    "available_estimators",
    "compare_estimators",
    "estimator_capabilities",
    "fit_gumbel",
    "get_estimator",
    "register_estimator",
    # platform
    "Leon3Parameters",
    "leon3_hierarchy",
    "platform_setup",
    # study
    "HierarchySpec",
    "ResultSet",
    "ResultStore",
    "Scenario",
    "Study",
    "Sweep",
    "WorkloadSpec",
    "available_studies",
    "get_study",
    "register_study",
    "run_study",
    # workloads
    "MemoryLayout",
    "eembc_kernel_names",
    "eembc_trace",
    "synthetic_vector_trace",
]

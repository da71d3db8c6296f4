"""Reproduction of *Random Modulo: a New Processor Cache Design for
Real-Time Critical Systems* (Hernández et al., DAC 2016).

The package is organised in layers (see DESIGN.md):

* :mod:`repro.core` — the paper's contribution: placement policies (modulo,
  hRP, Random Modulo), permutation networks and the seed generator.
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

The names below load on first use (:mod:`repro._lazy`): ``import repro``
imports no subpackage.

Quickstart
----------
>>> from repro import platform_setup, eembc_trace, run_campaign, apply_mbpta
>>> trace = eembc_trace("a2time")
>>> campaign = run_campaign(trace, platform_setup("rm"), runs=100, master_seed=1)
>>> result = apply_mbpta(campaign.execution_times)
>>> round(result.pwcet_at(1e-15))  # doctest: +SKIP
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the subpackage that exports it.
_EXPORTS = {
    # analysis
    "CampaignResult": "analysis",
    "ExperimentSettings": "analysis",
    "high_water_mark": "analysis",
    "industrial_bound": "analysis",
    "run_campaign": "analysis",
    "run_layout_campaign": "analysis",
    # cache
    "CacheConfig": "cache",
    "CacheHierarchy": "cache",
    "HierarchyConfig": "cache",
    "MemoryTimings": "cache",
    "SetAssociativeCache": "cache",
    "Trace": "cache",
    # core
    "HashRandomPlacement": "core",
    "ModuloPlacement": "core",
    "PlacementGeometry": "core",
    "RandomModuloPlacement": "core",
    "make_placement": "core",
    # engine
    "available_engines": "engine",
    "engine_capabilities": "engine",
    "get_engine": "engine",
    "register_engine": "engine",
    # pwcet
    "Estimator": "pwcet",
    "MbptaConfig": "pwcet",
    "MbptaResult": "pwcet",
    "apply_mbpta": "pwcet",
    "apply_mbpta_batch": "pwcet",
    "available_estimators": "pwcet",
    "compare_estimators": "pwcet",
    "estimator_capabilities": "pwcet",
    "fit_gumbel": "pwcet",
    "get_estimator": "pwcet",
    "register_estimator": "pwcet",
    # platform
    "Leon3Parameters": "platform",
    "leon3_hierarchy": "platform",
    "platform_setup": "platform",
    # study
    "HierarchySpec": "study",
    "ResultSet": "study",
    "ResultStore": "study",
    "Scenario": "study",
    "Study": "study",
    "Sweep": "study",
    "WorkloadSpec": "study",
    "available_studies": "study",
    "get_study": "study",
    "register_study": "study",
    "run_studies": "study",
    "run_study": "study",
    # workloads
    "MemoryLayout": "workloads",
    "eembc_kernel_names": "workloads",
    "eembc_trace": "workloads",
    "synthetic_vector_trace": "workloads",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

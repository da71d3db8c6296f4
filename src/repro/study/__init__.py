"""Declarative scenario/study subsystem.

The evaluation grid of the paper — {placement policy x workload x cache
hierarchy x MBPTA protocol} — is expressed here as data instead of code:

* :class:`Scenario` — a frozen spec of one measurement campaign (workload,
  hierarchy, runs, seed, engine);
* :class:`Sweep` — axis grids expanded into scenario lists;
* :class:`Study` — a named (planner, builder) pair resolved through a
  registry (:func:`register_study` / :func:`get_study`, mirroring
  :mod:`repro.engine`);
* :class:`ResultStore` — a content-hash-keyed on-disk cache
  (``results/store/``) so re-running a study only simulates scenarios whose
  spec hash is new;
* :class:`ResultSet` — label-addressable outcomes, analysed under one
  MBPTA config, with generic ``table()``/``ccdf()``/``compare()`` views.

The nine paper experiments are registered as built-in studies
(:mod:`repro.study.library`) and run with :func:`run_studies` (one drain
for several) or ``python -m repro study {list,run,compare,clean}``.  The
registry loads them before its first lookup, so reading a store or
querying the run table never imports the study library.  The names below
load on first use (:mod:`repro._lazy`).
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_STORE_DIR": "store",
    "ExecutionReport": "resultset",
    "HierarchySpec": "scenario",
    "ResultSet": "resultset",
    "ResultStore": "store",
    "RunTable": "runtable",
    "Scenario": "scenario",
    "ScenarioOutcome": "resultset",
    "Study": "registry",
    "StudyContext": "registry",
    "StudyOutcome": "registry",
    "Sweep": "scenario",
    "WorkloadSpec": "scenario",
    "available_studies": "registry",
    "build_run_table": "runtable",
    "execute_plans": "runner",
    "execute_scenarios": "runner",
    "expand": "scenario",
    "get_study": "registry",
    "register_study": "registry",
    "run_studies": "registry",
    "run_study": "registry",
    "unregister_study": "registry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

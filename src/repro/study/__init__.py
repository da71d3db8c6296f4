"""Declarative scenario/study subsystem.

The evaluation grid of the paper — {placement policy x workload x cache
hierarchy x MBPTA protocol} — is expressed here as data instead of code:

* :class:`Scenario` — a frozen spec of one measurement campaign (workload,
  hierarchy, runs, seed, engine, MBPTA config);
* :class:`Sweep` — axis grids expanded into scenario lists;
* :class:`Study` — a named (planner, builder) pair resolved through a
  registry (:func:`register_study` / :func:`get_study`, mirroring
  :mod:`repro.engine`);
* :class:`ResultStore` — a content-hash-keyed on-disk cache
  (``results/store/``) so re-running a study only simulates scenarios whose
  spec hash is new;
* :class:`ResultSet` — label-addressable outcomes with generic
  ``table()``/``ccdf()``/``compare()`` views.

The nine paper experiments are registered as built-in studies
(:mod:`repro.study.library`) and run with :func:`run_study` or the CLI
surface ``python -m repro study {list,run,compare,clean}``.
"""

from __future__ import annotations

from .registry import (
    Study,
    StudyContext,
    StudyOutcome,
    available_studies,
    get_study,
    register_study,
    run_study,
    unregister_study,
)
from .resultset import ExecutionReport, ResultSet, ScenarioOutcome
from .runner import execute_scenarios
from .runtable import RunTable, build_run_table
from .scenario import HierarchySpec, Scenario, Sweep, WorkloadSpec, expand
from .store import DEFAULT_STORE_DIR, ResultStore, StoredResult
from .library import register_builtin_studies

__all__ = [
    "DEFAULT_STORE_DIR",
    "ExecutionReport",
    "HierarchySpec",
    "ResultSet",
    "ResultStore",
    "RunTable",
    "Scenario",
    "ScenarioOutcome",
    "StoredResult",
    "Study",
    "StudyContext",
    "StudyOutcome",
    "Sweep",
    "WorkloadSpec",
    "available_studies",
    "build_run_table",
    "execute_scenarios",
    "expand",
    "get_study",
    "register_builtin_studies",
    "register_study",
    "run_study",
    "unregister_study",
]

register_builtin_studies()

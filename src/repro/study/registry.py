"""Study protocol and registry (mirrors :mod:`repro.engine.base`).

A *study* is a named, declarative experiment: a **planner** maps
:class:`~repro.analysis.experiments.ExperimentSettings` (plus optional
keyword parameters) to scenarios, and a **builder** maps the executed
:class:`~repro.study.resultset.ResultSet` back to the study's result object
(for the nine paper studies, the result dataclasses of
:mod:`repro.analysis.experiments`, whose ``--format text`` rendering the
goldens pin).

Studies are selected by name through the registry; the CLI's
``python -m repro study`` surface and :func:`run_studies` (one drain for
all the named studies) resolve names with :func:`get_study`.

To add a study::

    from repro.study import Study, register_study, Scenario, Sweep

    def plan(settings, **params):
        return Sweep(base=..., axes=...)          # or a list of Scenarios

    def build(context):                           # context.results is the ResultSet
        return context.results.table(cutoffs=(1e-15,))

    register_study(Study(name="my_sweep", description="...", planner=plan,
                         builder=build, min_runs=20))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..pwcet.protocol import MBPTA_MIN_RUNS
from .resultset import ResultSet
from .runner import execute_plans
from .scenario import Scenario, Sweep, expand
from .store import ResultStore, check_study_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.experiments import ExperimentSettings

__all__ = [
    "Study",
    "StudyContext",
    "StudyOutcome",
    "register_study",
    "unregister_study",
    "get_study",
    "available_studies",
    "run_studies",
    "run_study",
]


@dataclass
class StudyContext:
    """Everything a study's builder may consult."""

    settings: "ExperimentSettings"
    results: ResultSet
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class StudyOutcome:
    """A finished study: the paper-style result plus the raw result set."""

    study: "Study"
    settings: "ExperimentSettings"
    result: object
    results: ResultSet

    @property
    def report(self):
        """The execution report (cache hits, simulations, stores, shards)."""
        return self.results.report


@dataclass(frozen=True)
class Study:
    """A named declarative experiment: plan scenarios, build a result."""

    name: str
    description: str
    planner: Callable[..., Union[Sweep, Sequence[Scenario]]]
    builder: Callable[[StudyContext], object]
    #: Smallest ``--runs`` the study accepts; studies applying the MBPTA
    #: protocol need :data:`MBPTA_MIN_RUNS`, purely analytical ones 0.
    min_runs: int = MBPTA_MIN_RUNS

    def plan(self, settings: "ExperimentSettings", **params) -> List[Scenario]:
        """The study's scenario list for ``settings`` (sweeps expanded)."""
        return expand(self.planner(settings, **params))


_REGISTRY: Dict[str, Study] = {}
_builtins_registered = False


def _registry() -> Dict[str, Study]:
    """The registry, with the nine paper studies registered on first use.

    Importing :mod:`repro.study.library` loads every paper study and its
    result classes (:mod:`repro.analysis.experiments`), so it waits for
    the first lookup or registration: reading a store or the run table
    never pays for it.  Threads that race here register the same objects,
    and ``setdefault`` keeps the first, so the check needs no lock.
    """
    global _builtins_registered
    if not _builtins_registered:
        from .library import BUILTIN_STUDIES

        for study in BUILTIN_STUDIES:
            _REGISTRY.setdefault(study.name, study)
        _builtins_registered = True
    return _REGISTRY


def register_study(study: Study, replace: bool = False) -> Study:
    """Register ``study`` under ``study.name``.

    Re-registering a name raises unless ``replace=True``.  The name must
    pass :func:`~repro.study.store.check_study_name`: it names the study's
    marker directory in a store.
    """
    if check_study_name(study.name) in _registry() and not replace:
        raise ValueError(
            f"study {study.name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[study.name] = study
    return study


def unregister_study(name: str) -> None:
    """Remove a registered study (primarily for tests)."""
    _registry().pop(name, None)


def available_studies() -> Tuple[str, ...]:
    """Names of all registered studies, sorted."""
    return tuple(sorted(_registry()))


def get_study(name: str) -> Study:
    """Resolve a study by registry name.

    Unknown names raise :class:`ValueError` listing the registered names.
    """
    try:
        return _registry()[name]
    except KeyError:
        registered = ", ".join(available_studies()) or "<none>"
        raise ValueError(
            f"unknown study {name!r}; registered studies: {registered}"
        ) from None


def run_studies(
    names: Sequence[str],
    settings: Optional["ExperimentSettings"] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    **params,
) -> List[StudyOutcome]:
    """Run registered studies by name through one drain; one outcome per
    name, in order (the main programmatic entry point).

    Every study is planned, then their campaigns are resolved in one
    :func:`~repro.study.runner.execute_plans` call (on ``settings.engine``
    with ``settings.jobs`` workers, analysed under
    ``settings.mbpta_config()``), then each study's provenance markers are
    written and its builder runs.  ``params`` go to every study.  Without
    ``store`` the call simulates and persists nothing; with one, it
    resolves previously executed scenarios from disk and persists fresh
    ones.
    """
    from ..analysis.experiments import ExperimentSettings

    settings = settings if settings is not None else ExperimentSettings()
    studies = [get_study(name) for name in names]
    plans = [study.plan(settings, **params) for study in studies]
    result_sets = execute_plans(
        plans,
        store=store,
        use_cache=use_cache,
        engine=settings.engine,
        jobs=settings.jobs,
        shard_size=settings.shard_size,
        mbpta=settings.mbpta_config(),
    )
    outcomes = []
    for study, results in zip(studies, result_sets):
        if store is not None:
            # Provenance for the run table: which study produced which entry.
            store.record_study(study.name, [outcome.spec_hash for outcome in results])
        context = StudyContext(settings=settings, results=results, params=dict(params))
        outcomes.append(
            StudyOutcome(
                study=study, settings=settings, result=study.builder(context), results=results
            )
        )
    return outcomes


def run_study(
    name: str,
    settings: Optional["ExperimentSettings"] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    **params,
) -> StudyOutcome:
    """Run one registered study: ``run_studies([name], ...)[0]``, whose
    ``.result`` is the experiment's result object."""
    [outcome] = run_studies([name], settings, store, use_cache, **params)
    return outcome

"""pWCET estimator protocol and registry (mirrors :mod:`repro.engine.base`).

A *pWCET estimator* is a strategy for turning one campaign's execution-time
sample into a projected exceedance curve.  Estimators are first-class
objects selected **by name through the registry**; no caller outside this
package compares estimator names against string literals.  Every layer —
:func:`repro.pwcet.apply_mbpta`, the batch pipeline,
:meth:`repro.study.ResultSet.mbpta`, the CLI — resolves the requested name
with :func:`get_estimator` and drives the resulting fit.

Capability flags describe what callers may rely on:

``supports_batch``
    :meth:`Estimator.fit_batch` genuinely vectorises the fit across the
    rows of an ``(n_campaigns, n_runs)`` matrix, so assessing a whole study
    in one call is cheaper than one call per campaign; without it the
    estimator fits row by row.  Every built-in estimator sets it.
``needs_block_maxima``
    The estimator fits block maxima (grouping runs into blocks of
    ``MbptaConfig.block_size`` and discarding a trailing partial block); a
    peaks-over-threshold estimator clears this flag and consumes the raw
    sample, so it never discards runs.

An estimator's :attr:`Estimator.revision` goes into its analyses' hash
once it is above 0: a change that alters an estimator's stored numbers
bumps it, so that estimator's stored analyses become misses and no other
estimator's hash moves.

To add an estimator: subclass :class:`Estimator`, implement
:meth:`Estimator.fit_batch` returning one :class:`TailEstimate` per row,
and call :func:`register_estimator`; :meth:`Estimator.fit` is its one-row
view.  The built-in estimators
(:data:`repro.pwcet.estimators.BUILTIN_ESTIMATORS`) are registered before
the registry's first lookup or registration, whichever module a caller
imported first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import MbptaConfig

__all__ = [
    "TailEstimate",
    "Estimator",
    "register_estimator",
    "unregister_estimator",
    "get_estimator",
    "available_estimators",
    "estimator_capabilities",
]


@dataclass(frozen=True)
class TailEstimate:
    """One fitted tail model: the distribution and its projection curve.

    ``fit`` carries the distribution parameters (a
    :class:`~repro.pwcet.evt.GumbelFit` or
    :class:`~repro.pwcet.estimators.ExponentialTailFit`); ``curve`` projects
    it (``pwcet``/``exceedance``/``ccdf_points``).  ``discarded_runs``
    counts measurements dropped by block-maxima grouping (always 0 for
    peaks-over-threshold estimators).
    """

    fit: object
    curve: object
    block_size: int = 1
    discarded_runs: int = 0


class Estimator(ABC):
    """A named pWCET estimation strategy with declared capabilities."""

    #: Registry name (``"gumbel-pwm"``, ``"gumbel-mle"``, ...).
    name: str = "abstract"
    #: One-line description shown by ``python -m repro pwcet list``.
    description: str = ""
    #: fit_batch vectorises the fit across campaigns.
    supports_batch: bool = False
    #: Fits block maxima (and may discard a trailing partial block).
    needs_block_maxima: bool = True
    #: Revision of the fitted numbers; in the analysis hash once above 0.
    revision: int = 0

    @abstractmethod
    def fit_batch(
        self, matrix: np.ndarray, config: "MbptaConfig"
    ) -> List[TailEstimate]:
        """Fit one tail model per row of an ``(n_campaigns, n_runs)`` matrix."""

    def fit(self, samples: Sequence[float], config: "MbptaConfig") -> TailEstimate:
        """Fit the tail model to one campaign's execution times (a one-row
        :meth:`fit_batch`)."""
        return self.fit_batch(np.asarray([samples], dtype=float), config)[0]

    def describe(self) -> Dict[str, object]:
        """Structured capability summary (used by docs, reports and tests)."""
        return {
            "name": self.name,
            "description": self.description,
            "supports_batch": self.supports_batch,
            "needs_block_maxima": self.needs_block_maxima,
        }


_REGISTRY: Dict[str, Estimator] = {}
_builtins_registered = False


def _registry() -> Dict[str, Estimator]:
    """The registry, with the built-in estimators registered on first use.

    Threads that race here register the same objects, and ``setdefault``
    keeps the first, so the check needs no lock.
    """
    global _builtins_registered
    if not _builtins_registered:
        from .estimators import BUILTIN_ESTIMATORS

        for estimator in BUILTIN_ESTIMATORS:
            _REGISTRY.setdefault(estimator.name, estimator)
        _builtins_registered = True
    return _REGISTRY


def register_estimator(estimator: Estimator, replace: bool = False) -> Estimator:
    """Register ``estimator`` under ``estimator.name``.

    Re-registering a name raises unless ``replace=True`` (used by tests and
    by callers that want to override a built-in estimator).
    """
    name = estimator.name
    if not name or name == Estimator.name:
        raise ValueError(f"estimator {estimator!r} must define a concrete name")
    if name in _registry() and not replace:
        raise ValueError(
            f"estimator {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = estimator
    return estimator


def unregister_estimator(name: str) -> None:
    """Remove a registered estimator (primarily for tests)."""
    _registry().pop(name, None)


def available_estimators() -> Tuple[str, ...]:
    """Names of all registered estimators, sorted."""
    return tuple(sorted(_registry()))


def get_estimator(name: str) -> Estimator:
    """Resolve an estimator by registry name.

    Unknown names raise :class:`ValueError` listing the registered names.
    """
    try:
        return _registry()[name]
    except KeyError:
        registered = ", ".join(available_estimators()) or "<none>"
        raise ValueError(
            f"unknown estimator {name!r}; registered estimators: {registered}"
        ) from None


def estimator_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability matrix of every registered estimator (name -> describe())."""
    return {name: _registry()[name].describe() for name in available_estimators()}

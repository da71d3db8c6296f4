"""Engine protocol and registry.

A *simulation engine* is a strategy for replaying one
:class:`~repro.cache.fastsim.CompiledTrace` on one
:class:`~repro.cache.hierarchy.HierarchyConfig` under many per-run seeds.
Engines are first-class objects selected **by name through the registry**;
no caller outside this package compares engine names against string
literals.  Every layer — the campaign functions of
:mod:`repro.analysis.campaign`, the exec layer's lane executor and its
worker processes, the experiment drivers, the CLI — resolves the requested
name with :func:`get_engine` and drives the resulting :class:`EngineSimulator`.
When no engine is named, every layer uses :data:`DEFAULT_ENGINE`.

Capability flags describe what callers may rely on:

``supports_batch``
    :meth:`EngineSimulator.run_batch` amortises (or genuinely vectorises)
    work across seeds, so batching seeds into one call is cheaper than
    repeated :meth:`EngineSimulator.run` calls.
``bit_exact``
    Results are bit-exact with the reference hierarchy model for every seed
    (all built-in engines; a future sampling/approximate backend would clear
    this flag and campaign code can refuse it where exactness matters).

To add a backend: subclass :class:`Engine`, implement :meth:`Engine.simulator`
returning an object with ``run(seed)`` / ``run_batch(seeds, lines=None)``
producing :class:`~repro.cache.fastsim.FastRunResult`, and call
:func:`register_engine` at import time (see ``repro/engine/__init__.py``).
``lines`` gives each lane its own table of line addresses in place of the
compiled trace's ``unique_lines`` (same length, same order): the layout lanes
of a deterministic campaign are one trace relocated per lane.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.fastsim import CompiledTrace, FastRunResult
    from ..cache.hierarchy import HierarchyConfig

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "EngineSimulator",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
    "engine_capabilities",
]

#: The engine every layer uses when none is named: the production engine.
#: ``reference`` is the oracle it is checked against.
DEFAULT_ENGINE = "numpy"


class EngineSimulator(Protocol):
    """What an engine's per-(config, trace) simulator must provide."""

    def run(self, seed: int) -> "FastRunResult":
        """Simulate one run under hierarchy seed ``seed``."""
        ...  # pragma: no cover - protocol

    def run_batch(
        self, seeds: Sequence[int], lines: Optional[Sequence[Sequence[int]]] = None
    ) -> List["FastRunResult"]:
        """Simulate one run per seed, in seed order.

        ``lines``, when given, is a ``(len(seeds), len(compiled.unique_lines))``
        table of line addresses: lane ``i`` replays the compiled trace with
        ``lines[i]`` in place of ``compiled.unique_lines``.
        """
        ...  # pragma: no cover - protocol


class Engine(ABC):
    """A named simulation backend with declared capabilities."""

    #: Registry name (``"numpy"``, ``"reference"``, ...).
    name: str = "abstract"
    #: run_batch amortises/vectorises work across seeds.
    supports_batch: bool = True
    #: Bit-exact with the reference hierarchy model.
    bit_exact: bool = True

    @abstractmethod
    def simulator(
        self, config: "HierarchyConfig", compiled: "CompiledTrace"
    ) -> EngineSimulator:
        """Build a simulator for one (hierarchy, compiled trace) pair."""

    def describe(self) -> Dict[str, object]:
        """Structured capability summary (used by docs, reports and tests)."""
        return {
            "name": self.name,
            "supports_batch": self.supports_batch,
            "bit_exact": self.bit_exact,
        }


_REGISTRY: Dict[str, Engine] = {}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register ``engine`` under ``engine.name``.

    Re-registering a name raises unless ``replace=True`` (used by tests and
    by callers that want to override a built-in backend).
    """
    name = engine.name
    if not name or name == Engine.name:
        raise ValueError(f"engine {engine!r} must define a concrete name")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (primarily for tests)."""
    _REGISTRY.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> Engine:
    """Resolve an engine by registry name.

    Unknown names raise :class:`ValueError` listing the registered names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        registered = ", ".join(available_engines()) or "<none>"
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {registered}"
        ) from None


def engine_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability matrix of every registered engine (name -> describe())."""
    return {name: _REGISTRY[name].describe() for name in available_engines()}

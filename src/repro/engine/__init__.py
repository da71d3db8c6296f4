"""Simulation engine subsystem: protocol, registry and built-in backends.

Engine selection everywhere in the repository goes through this package:

>>> from repro.engine import DEFAULT_ENGINE, available_engines, get_engine
>>> available_engines()
('numpy', 'reference')
>>> DEFAULT_ENGINE
'numpy'
>>> get_engine("numpy").supports_batch
True

Built-in backends:

* ``numpy``     — the production engine: a vectorized batch engine that
  executes a compiled :class:`~repro.engine.plan.TracePlan` for all seeds of
  a campaign chunk simultaneously (numpy is a declared dependency of the
  package);
* ``reference`` — object-oriented hierarchy model, slow but inspectable
  (the oracle the production engine is checked against).

The two are bit-exact with each other.  See DESIGN.md ("Engines") for the
capability matrix and how to add a backend.
"""

from __future__ import annotations

from .base import (
    DEFAULT_ENGINE,
    Engine,
    EngineSimulator,
    available_engines,
    engine_capabilities,
    get_engine,
    register_engine,
    unregister_engine,
)
from .numpy_engine import NumpyEngine
from .reference import ReferenceEngine

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "EngineSimulator",
    "NumpyEngine",
    "ReferenceEngine",
    "available_engines",
    "engine_capabilities",
    "get_engine",
    "register_engine",
    "unregister_engine",
]

register_engine(ReferenceEngine())
register_engine(NumpyEngine())

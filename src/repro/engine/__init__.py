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
capability matrix and how to add a backend.  The registry registers both
before its first lookup; the names below load on first use
(:mod:`repro._lazy`), so naming :data:`DEFAULT_ENGINE` builds no engine.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_ENGINE": "base",
    "Engine": "base",
    "EngineSimulator": "base",
    "NumpyEngine": "numpy_engine",
    "ReferenceEngine": "reference",
    "available_engines": "base",
    "engine_capabilities": "base",
    "get_engine": "base",
    "register_engine": "base",
    "unregister_engine": "base",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Package exports that load on first use (PEP 562).

A package init that imports every submodule makes ``import repro`` — and
so every ``python -m repro`` command — pay for the study library, the
engines and the estimators whether it runs them or not.  The package
inits instead name where each public name lives; the first access imports
that submodule and keeps the value in the package namespace.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.
    """

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__

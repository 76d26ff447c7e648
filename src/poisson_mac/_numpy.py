"""
numpy, loaded on first attribute access.

The in-regime single-instance solvers are pure ``math`` code, so a command
line that only runs them should not pay numpy's import, which costs more
than the rest of the package.  ``np`` is numpy itself when numpy is already
imported; otherwise it is a module object that runs numpy's import on its
first attribute access and is a plain module from then on.  A missing or
blocked numpy still fails at import time, with ImportError.

The first access is not thread-safe on every supported Python; the package
starts no threads.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy(name: str) -> ModuleType:
    if name in sys.modules:  # loaded, or blocked by a None entry
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named '{name}'", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")

"""Lazy, guarded access to optional acceleration dependencies.

The only optional dependency today is scipy: several frozen kernels use
``scipy.sparse`` matrix products and ``scipy.sparse.csgraph`` connectivity
routines when they are available, and fall back to batched-numpy code
otherwise.  All scipy imports in the library go through this module, so

* importing :mod:`repro` never imports scipy eagerly,
* the kernel registry can ask :func:`have_scipy` *at dispatch time* and pick
  a fallback kernel when scipy is missing, and
* the test suite / CI can force the numpy-only paths on a machine that has
  scipy installed by setting ``REPRO_NO_SCIPY=1`` in the environment.

Install the optional accelerators with ``pip install -e .[fast]``.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Optional

#: Environment variable that disables scipy even when it is importable.
DISABLE_ENV_VAR = "REPRO_NO_SCIPY"

_TRUTHY = {"1", "true", "yes", "on"}

#: Import cache: module name -> module object or None (import failed).
_modules: Dict[str, Optional[Any]] = {}


def env_flag(name: str) -> bool:
    """Whether environment variable ``name`` holds a truthy value.

    Read from the environment on every call (it is one dict lookup) so tests
    can flip a flag with ``monkeypatch.setenv`` without reimporting.  Shared
    by the engine's switches (``REPRO_NO_SCIPY``, ``REPRO_SANITIZE``).
    """
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def scipy_disabled() -> bool:
    """Whether ``REPRO_NO_SCIPY`` asks for the numpy-only fallback paths."""
    return env_flag(DISABLE_ENV_VAR)


#: Environment variable that arms the runtime sanitizer
#: (:mod:`repro.sanitize`): backend-parity re-execution at dispatch time,
#: NaN/Inf screening, artifact integrity re-hashing.
#: Defined here (not in ``repro.sanitize``) so the engine and artifact layers
#: can probe it without importing the sanitizer.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` arms the runtime sanitizer.

    Read per call, like every other escape hatch: the pipeline ``--sanitize``
    flag and tests flip the variable mid-process.
    """
    return env_flag(SANITIZE_ENV_VAR)


def _import(name: str) -> Optional[Any]:
    if name not in _modules:
        try:
            _modules[name] = importlib.import_module(name)
        except ImportError:
            _modules[name] = None
    return _modules[name]


def scipy_sparse() -> Optional[Any]:
    """The ``scipy.sparse`` module, or ``None`` when unavailable/disabled."""
    if scipy_disabled():
        return None
    return _import("scipy.sparse")


def scipy_csgraph() -> Optional[Any]:
    """The ``scipy.sparse.csgraph`` module, or ``None`` when unavailable/disabled."""
    if scipy_disabled():
        return None
    return _import("scipy.sparse.csgraph")


def have_scipy() -> bool:
    """Whether the scipy-backed kernels may be selected right now."""
    return scipy_sparse() is not None


def reset_cache() -> None:
    """Forget import results (test helper; normal code never needs this)."""
    _modules.clear()

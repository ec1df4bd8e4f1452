"""The one import point for scipy, plus the engine's environment switches.

scipy is a required dependency: the frozen kernels build ``scipy.sparse``
matrix products and call ``scipy.sparse.csgraph`` connectivity routines.
Importing scipy would be a large share of the package's start-up time, so it
is loaded on first use, never at import time.  Every scipy access in the
library goes through the two accessors below, which keeps ``import repro``
free of scipy (lint rule R002 enforces this).
"""

from __future__ import annotations

import os
from types import ModuleType


def scipy_sparse() -> ModuleType:
    """The ``scipy.sparse`` module, imported on first use."""
    import scipy.sparse

    return scipy.sparse


def scipy_csgraph() -> ModuleType:
    """The ``scipy.sparse.csgraph`` module, imported on first use."""
    from scipy.sparse import csgraph

    return csgraph


#: Environment variable that arms the runtime sanitizer
#: (:mod:`repro.sanitize`): backend-parity re-execution at dispatch time,
#: NaN/Inf screening, artifact integrity re-hashing.
#: Defined here (not in ``repro.sanitize``) so the engine and artifact layers
#: can probe it without importing the sanitizer.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` arms the runtime sanitizer.

    Read from the environment on every call (it is one dict lookup): the
    pipeline ``--sanitize`` flag and tests flip the variable mid-process.
    """
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() in _TRUTHY

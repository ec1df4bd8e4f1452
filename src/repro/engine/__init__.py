"""Dispatch engine: one vectorised kernel per operation.

The engine is the only place in the library that inspects a graph's backend.
Metric and algorithm modules declare each operation's kernel with
:func:`dispatchable`; callers keep calling plain functions.  The kernel runs
on the frozen CSR backend: a frozen graph goes straight to it, and a mutable
graph is frozen once first.  See :mod:`repro.engine.registry` for the
dispatch rules and :mod:`repro.engine.deps` for the lazy scipy import point.
"""

from . import deps
from .registry import (
    FROZEN,
    MUTABLE,
    DuplicateKernelError,
    EngineError,
    Kernel,
    UnfreezableGraphError,
    UnknownOperationError,
    backend_of,
    dispatch,
    dispatchable,
    frozen_view,
    list_ops,
    register,
    resolve,
)

__all__ = [
    "FROZEN",
    "MUTABLE",
    "DuplicateKernelError",
    "EngineError",
    "Kernel",
    "UnfreezableGraphError",
    "UnknownOperationError",
    "backend_of",
    "deps",
    "dispatch",
    "dispatchable",
    "frozen_view",
    "list_ops",
    "register",
    "resolve",
]

"""Backend-dispatch engine: one kernel per (operation, backend).

The engine is the only place in the library that inspects a graph's backend.
Metric and algorithm modules declare a portable implementation with
:func:`dispatchable` and attach a vectorized frozen kernel with
:func:`kernel`; callers keep calling plain functions.  A frozen graph runs
its frozen kernel, or the portable body when there is none; a mutable graph
runs the portable body.  See :mod:`repro.engine.registry` for the dispatch
rules and :mod:`repro.engine.deps` for the lazy scipy import point.
"""

from . import deps
from .registry import (
    FROZEN,
    MUTABLE,
    DuplicateKernelError,
    EngineError,
    Kernel,
    NoKernelError,
    UnknownOperationError,
    backend_of,
    dispatch,
    dispatchable,
    frozen_view,
    kernel,
    kernels_for,
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
    "NoKernelError",
    "UnknownOperationError",
    "backend_of",
    "deps",
    "dispatch",
    "dispatchable",
    "frozen_view",
    "kernel",
    "kernels_for",
    "list_ops",
    "register",
    "resolve",
]

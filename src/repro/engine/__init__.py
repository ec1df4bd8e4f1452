"""Backend-dispatch engine: kernel registry + optional-dependency gating.

The engine is the only place in the library that inspects a graph's backend.
Metric and algorithm modules declare a portable implementation with
:func:`dispatchable` and attach vectorized backend kernels with
:func:`kernel`; callers keep calling plain functions.  A frozen graph runs
its best available frozen kernel, or the portable body when there is none.
See
:mod:`repro.engine.registry` for the dispatch rules and
:mod:`repro.engine.deps` for how optional dependencies (scipy) are gated.
"""

from . import deps
from .registry import (
    FROZEN,
    MUTABLE,
    DuplicateKernelError,
    EngineConfig,
    EngineError,
    Kernel,
    NoKernelError,
    UnknownOperationError,
    backend_of,
    config,
    configure,
    dispatch,
    dispatchable,
    frozen_view,
    graph_size,
    kernel,
    kernels_for,
    list_ops,
    register,
    resolve,
    select,
)

__all__ = [
    "FROZEN",
    "MUTABLE",
    "DuplicateKernelError",
    "EngineConfig",
    "EngineError",
    "Kernel",
    "NoKernelError",
    "UnknownOperationError",
    "backend_of",
    "config",
    "configure",
    "deps",
    "dispatch",
    "dispatchable",
    "frozen_view",
    "graph_size",
    "kernel",
    "kernels_for",
    "list_ops",
    "register",
    "resolve",
    "select",
]

"""Dispatch engine: one vectorised kernel per operation.

Metric and algorithm modules never inspect a graph's backend themselves;
they register their kernels here instead:

* an *operation* is a named measurement/algorithm entry point whose first
  positional argument is the graph (``"social_knn"``,
  ``"weakly_connected_components"``, ``"bfs_distances"``, ...);
* its *kernel* is the one implementation, written against the CSR arrays of
  the frozen backend and registered with :func:`dispatchable`.  A second,
  different function for an occupied operation raises
  :class:`DuplicateKernelError`;
* :func:`dispatch` runs the kernel.  A frozen input goes straight to it; a
  mutable ``SAN`` or ``DiGraph`` is frozen once first, through the cached
  :func:`frozen_view`, so both backends give the same answer by
  construction.  Independent oracles (networkx, closed forms, brute-force
  counters in ``tests/test_oracle_*.py``) check the kernels.

Public entry points keep their normal Python signatures: the decorated
kernel *is* the public function, replaced by a thin wrapper that calls
:func:`dispatch` and keeps its name, signature and docstring:

>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1)])
>>> from repro.metrics.reciprocity import reciprocal_edge_count
>>> reciprocal_edge_count(san) == reciprocal_edge_count(san.freeze())
True
>>> resolve("reciprocal_edge_count").backend
'frozen'

Callers that dispatch many operations on one mutable graph may freeze it
once up front (see ``repro.metrics.summary.frozen_san_report``); the cache
in :func:`frozen_view` makes repeated dispatches on an unchanged graph
freeze it only once either way.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graph.frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph, FrozenSAN
from . import deps

#: Canonical backend names: every kernel runs on ``FROZEN`` inputs.
MUTABLE = "mutable"
FROZEN = "frozen"

_FROZEN_TYPES = (FrozenSAN, FrozenDiGraph, FrozenBipartiteAttributeGraph)


class EngineError(Exception):
    """Base class for dispatch-engine errors."""


class UnknownOperationError(EngineError, KeyError):
    """No kernel has been registered under the requested operation name."""


class UnfreezableGraphError(EngineError, TypeError):
    """The input graph is neither frozen nor has a ``freeze()`` method."""


class DuplicateKernelError(EngineError, ValueError):
    """A second function was registered for an occupied operation.

    Each operation holds exactly one kernel, so a second registration would
    silently replace the first, and which one ran would depend on import
    order.  Raised at import time so the collision is named where it
    happens.  Registering the *same* function object again is a no-op.
    """


@dataclass(frozen=True)
class Kernel:
    """The implementation of an operation (it runs on the frozen backend)."""

    op: str
    fn: Callable[..., Any]
    backend: str = FROZEN


#: op -> kernel.
_registry: Dict[str, Kernel] = {}


def _describe(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"


def register(op: str, fn: Callable[..., Any]) -> Kernel:
    """Register ``fn`` as the kernel of ``op`` (functional :func:`dispatchable`).

    Raises :class:`DuplicateKernelError` when a *different* function already
    holds the operation.  Registering the same function object again returns
    the existing entry.
    """
    existing = _registry.get(op)
    if existing is not None:
        if existing.fn is fn:
            return existing
        raise DuplicateKernelError(
            f"duplicate kernel registration for operation {op!r}: "
            f"{_describe(existing.fn)} is already registered and "
            f"{_describe(fn)} would replace it"
        )
    entry = Kernel(op=op, fn=fn)
    _registry[op] = entry
    return entry


def dispatchable(op: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator for public entry points: register the kernel, return a dispatcher.

    The decorated function is the operation's kernel; it receives the graph
    frozen.  It is registered under ``op`` and replaced by a wrapper that
    routes every call through :func:`dispatch`.  The wrapper keeps the
    kernel's name, signature and docstring, and exposes the operation name
    as ``wrapper.op`` and the kernel as ``wrapper.__wrapped__``.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        register(op, fn)
        graph_parameter = next(iter(inspect.signature(fn).parameters))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args:
                return dispatch(op, args[0], *args[1:], **kwargs)
            try:
                graph = kwargs.pop(graph_parameter)
            except KeyError:
                raise TypeError(
                    f"{fn.__name__}() missing required argument: {graph_parameter!r}"
                ) from None
            return dispatch(op, graph, **kwargs)

        wrapper.op = op  # type: ignore[attr-defined]
        return wrapper

    return decorator


def backend_of(graph: Any) -> str:
    """Backend name of a graph object (``"frozen"`` or ``"mutable"``)."""
    return FROZEN if isinstance(graph, _FROZEN_TYPES) else MUTABLE


def list_ops() -> List[str]:
    """Sorted names of every registered operation."""
    return sorted(_registry)


def resolve(op: str) -> Kernel:
    """The kernel :func:`dispatch` runs for ``op`` (without running it)."""
    try:
        return _registry[op]
    except KeyError:
        raise UnknownOperationError(op) from None


#: Freeze cache: mutable graph -> (version at freeze time, frozen view).
#: Weakly keyed so caching never extends a graph's lifetime; validated by the
#: graph's version stamp, so a stale frozen view is never served.
_frozen_views: "weakref.WeakKeyDictionary[Any, Tuple[Any, Any]]" = (
    weakref.WeakKeyDictionary()
)


def frozen_view(graph: Any) -> Optional[Any]:
    """A cached frozen view of ``graph`` (freeze-once, validated by version).

    Returns ``None`` when the graph cannot be frozen (no ``freeze`` method).
    Frozen inputs are returned unchanged (``freeze()`` is the identity on
    them), so callers can use this to normalise mixed-backend collections —
    e.g. :func:`repro.metrics.evolution.ensure_frozen_snapshots` freezes a
    mutable snapshot sequence exactly once before running series kernels.
    """
    freeze = getattr(graph, "freeze", None)
    if freeze is None:
        return None
    version_of = getattr(graph, "version", None)
    if version_of is None:
        return freeze()  # no mutation counter: cannot cache safely
    version = version_of()
    try:
        cached = _frozen_views.get(graph)
    except TypeError:  # unhashable / non-weakrefable graph
        return freeze()
    if cached is not None and cached[0] == version:
        return cached[1]
    frozen = freeze()
    try:
        _frozen_views[graph] = (version, frozen)
    except TypeError:
        pass
    return frozen


def _run(entry: Kernel, graph: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """Invoke a kernel, detouring through the sanitizer when armed.

    ``REPRO_SANITIZE=1`` routes the call through
    :func:`repro.sanitize.checked_dispatch`, which screens the result for
    NaN/Inf (see the module docstring of :mod:`repro.sanitize`).  The import
    is deferred: the sanitizer is never loaded — and costs one env lookup
    per dispatch — unless armed.
    """
    if deps.sanitize_enabled():
        from .. import sanitize

        return sanitize.checked_dispatch(entry, graph, args, kwargs)
    return entry.fn(graph, *args, **kwargs)


def dispatch(op: str, graph: Any, *args: Any, **kwargs: Any) -> Any:
    """Run the kernel of ``op`` on ``graph``, frozen first if it is mutable.

    The graph is always passed to the kernel as the first positional
    argument; remaining arguments are forwarded untouched.
    """
    if not isinstance(graph, _FROZEN_TYPES):
        frozen = frozen_view(graph)
        if frozen is None:
            raise UnfreezableGraphError(
                f"operation {op!r} needs a frozen graph or one with freeze(); "
                f"got {type(graph).__name__}"
            )
        graph = frozen
    return _run(resolve(op), graph, args, kwargs)

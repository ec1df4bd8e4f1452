"""Backend-dispatch engine: a kernel registry keyed by (operation, backend).

Metric and algorithm modules never inspect a graph's backend themselves;
they register implementations here instead:

* an *operation* is a named measurement/algorithm entry point whose first
  positional argument is the graph (``"social_knn"``,
  ``"weakly_connected_components"``, ``"random_walks"``, ...);
* a *kernel* is the one implementation of an operation for one backend,
  registered with the :func:`kernel` decorator.  A second, different
  function for an occupied (operation, backend) slot raises
  :class:`DuplicateKernelError`;
* :func:`dispatch` looks up the kernel of the input graph's backend and
  calls it.  A frozen graph with no frozen kernel runs the portable
  (mutable-backend) implementation, which every frozen graph can run because
  it satisfies the read-only :class:`~repro.graph.protocol.SANView` /
  ``DiGraphView`` surface.  A mutable graph always runs the portable body.

Public entry points keep their normal Python signatures via
:func:`dispatchable`, which registers the decorated function as the portable
kernel and replaces it with a thin wrapper that calls :func:`dispatch`:

>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1)])
>>> from repro.metrics.reciprocity import reciprocal_edge_count
>>> reciprocal_edge_count(san) == reciprocal_edge_count(san.freeze())
True
>>> resolve("reciprocal_edge_count", san.freeze()).backend
'frozen'
>>> resolve("reciprocal_edge_count", san).backend
'mutable'

Callers that want the frozen kernels freeze explicitly, once, up front (see
``repro.metrics.summary.frozen_san_report`` and the ``python -m repro
report`` subcommand); :func:`frozen_view` caches that freeze per graph state.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graph.frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph, FrozenSAN
from . import deps

#: Canonical backend names.
MUTABLE = "mutable"
FROZEN = "frozen"

_FROZEN_TYPES = (FrozenSAN, FrozenDiGraph, FrozenBipartiteAttributeGraph)


class EngineError(Exception):
    """Base class for dispatch-engine errors."""


class UnknownOperationError(EngineError, KeyError):
    """No kernel has been registered under the requested operation name."""


class NoKernelError(EngineError, LookupError):
    """The operation exists but no kernel is available for the input backend."""


class DuplicateKernelError(EngineError, ValueError):
    """A second function was registered for an occupied (operation, backend).

    Each (operation, backend) holds exactly one kernel, so a second
    registration would silently replace the first, and which one ran would
    depend on import order.  Raised at import time so the collision is named
    where it happens.  Registering the *same* function object again is a
    no-op.
    """


@dataclass(frozen=True)
class Kernel:
    """The implementation of an operation on one backend."""

    op: str
    backend: str
    fn: Callable[..., Any]


#: op -> backend -> kernel.
_registry: Dict[str, Dict[str, Kernel]] = {}


def _describe(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"


def register(op: str, fn: Callable[..., Any], backend: str = FROZEN) -> Kernel:
    """Register ``fn`` as the ``(op, backend)`` kernel (functional :func:`kernel`).

    Raises :class:`DuplicateKernelError` when a *different* function already
    holds the slot.  Registering the same function object again returns the
    existing entry.
    """
    backends = _registry.setdefault(op, {})
    existing = backends.get(backend)
    if existing is not None:
        if existing.fn is fn:
            return existing
        raise DuplicateKernelError(
            f"duplicate kernel registration for operation {op!r} on backend "
            f"{backend!r}: {_describe(existing.fn)} is already registered and "
            f"{_describe(fn)} would replace it"
        )
    entry = Kernel(op=op, backend=backend, fn=fn)
    backends[backend] = entry
    return entry


def kernel(
    op: str, backend: str = FROZEN
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the function as the ``(op, backend)`` kernel."""

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        register(op, fn, backend=backend)
        return fn

    return decorator


def dispatchable(op: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator for public entry points: portable kernel + dispatch wrapper.

    The decorated function *is* the portable (mutable-backend) implementation;
    it is registered under ``backend="mutable"`` and replaced by a wrapper
    that routes every call through :func:`dispatch`.  The wrapper keeps the
    original name, signature and docstring, and exposes the operation name as
    ``wrapper.op`` plus the portable body as ``wrapper.__wrapped__``.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        register(op, fn, backend=MUTABLE)
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


def kernels_for(op: str) -> List[Kernel]:
    """Every registered kernel of ``op``, one per backend."""
    try:
        return list(_registry[op].values())
    except KeyError:
        raise UnknownOperationError(op) from None


def list_ops() -> List[str]:
    """Sorted names of every registered operation."""
    return sorted(_registry)


def resolve(op: str, graph: Any) -> Kernel:
    """The kernel :func:`dispatch` would run for ``graph`` (without running it).

    The kernel of the graph's own backend; for a frozen input without one,
    the portable mutable kernel, which runs unchanged on the frozen
    read-only API.
    """
    try:
        backends = _registry[op]
    except KeyError:
        raise UnknownOperationError(op) from None
    backend = backend_of(graph)
    entry = backends.get(backend)
    if entry is None and backend == FROZEN:
        entry = backends.get(MUTABLE)
    if entry is None:
        raise NoKernelError(f"no kernel for operation {op!r} on backend {backend!r}")
    return entry


#: Freeze cache: mutable graph -> (version at freeze time, frozen view).
#: Weakly keyed so caching never extends a graph's lifetime; validated by the
#: graph's mutation counter, so a stale frozen view is never served.
_frozen_views: "weakref.WeakKeyDictionary[Any, Tuple[int, Any]]" = (
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
    """Invoke a resolved kernel, detouring through the sanitizer when armed.

    ``REPRO_SANITIZE=1`` routes the call through
    :func:`repro.sanitize.checked_dispatch`, which also runs the portable
    body on the same inputs and asserts parity (see the module docstring of
    :mod:`repro.sanitize`).  The import is deferred: the sanitizer is never
    loaded — and costs one env lookup per dispatch — unless armed.
    """
    if deps.sanitize_enabled():
        from .. import sanitize

        return sanitize.checked_dispatch(entry, graph, args, kwargs)
    return entry.fn(graph, *args, **kwargs)


def dispatch(op: str, graph: Any, *args: Any, **kwargs: Any) -> Any:
    """Run the kernel :func:`resolve` picks for ``op`` on ``graph``.

    The graph is always passed to the kernel as the first positional
    argument; remaining arguments are forwarded untouched.
    """
    return _run(resolve(op, graph), graph, args, kwargs)

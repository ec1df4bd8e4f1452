"""Backend-dispatch engine: a kernel registry keyed by (operation, backend).

PR 1 wired the frozen CSR fast paths into the metrics layer with scattered
``isinstance(san, FrozenSAN)`` checks.  That idiom does not scale to more
backends (sharded, GPU, remote) or more operations, so this module replaces
it with an explicit registry:

* an *operation* is a named measurement/algorithm entry point whose first
  positional argument is the graph (``"social_knn"``, ``"components.weak"``,
  ``"random_walks"``, ...);
* a *kernel* is one implementation of an operation for one backend,
  registered with the :func:`kernel` decorator, optionally gated on a
  requirement (``requires="scipy"``) and ranked by ``priority``;
* :func:`dispatch` resolves the backend of the input graph, picks the best
  available kernel, and calls it.  A frozen graph with no frozen kernel falls
  back to the portable (mutable-backend) implementation, which every frozen
  graph can run because it satisfies the read-only
  :class:`~repro.graph.protocol.SANView` / ``DiGraphView`` surface.

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

Freeze-on-demand: by default a mutable graph runs the portable kernel.  When
an auto-freeze threshold is configured (:func:`configure`), ``dispatch``
freezes a mutable graph on the fly whenever a frozen kernel exists and the
graph has at least that many edges.  The frozen view is cached per graph in
a weak-keyed map and validated against the graph's mutation counter
(``version()``), so repeated dispatches — including portable fallbacks that
re-enter dispatch per node — freeze once per graph state, not once per call.
Batch pipelines should still prefer freezing explicitly up front (see
``repro.metrics.summary.frozen_san_report`` and the ``python -m repro
report`` subcommand).
"""

from __future__ import annotations

import functools
import inspect
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..graph.frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph, FrozenSAN
from . import deps

#: Canonical backend names.
MUTABLE = "mutable"
FROZEN = "frozen"

_FROZEN_TYPES = (FrozenSAN, FrozenDiGraph, FrozenBipartiteAttributeGraph)

#: Requirement name -> zero-arg availability probe, evaluated at dispatch
#: time (so e.g. setting ``REPRO_NO_SCIPY`` mid-process is honoured).
REQUIREMENT_PROBES: Dict[str, Callable[[], bool]] = {
    "scipy": deps.have_scipy,
}


class EngineError(Exception):
    """Base class for dispatch-engine errors."""


class UnknownOperationError(EngineError, KeyError):
    """No kernel has been registered under the requested operation name."""


class NoKernelError(EngineError, LookupError):
    """The operation exists but no kernel is available for the input backend."""


class DuplicateKernelError(EngineError, ValueError):
    """Two kernels were registered for one (operation, backend) at equal priority.

    Equal priority makes shadowing an accident of registration (import)
    order: the earlier registration would silently win at dispatch time.
    Raised at import time so the collision is named where it happens; pick a
    distinct priority for the new kernel instead.  Re-registering the *same*
    function (same module and qualname, e.g. after a module reload) replaces
    the old entry rather than raising.
    """


@dataclass(frozen=True)
class Kernel:
    """One registered implementation of an operation on one backend."""

    op: str
    backend: str
    fn: Callable[..., Any]
    requires: Tuple[str, ...] = ()
    priority: int = 0

    def available(self) -> bool:
        """Whether every requirement of this kernel is satisfied right now."""
        return all(REQUIREMENT_PROBES[name]() for name in self.requires)


@dataclass
class EngineConfig:
    """Mutable engine policy (a single module-level instance)."""

    #: Freeze a mutable graph on the fly when a frozen kernel exists and the
    #: graph has at least this many edges.  ``None`` disables auto-freezing.
    auto_freeze_threshold: Optional[int] = None


_config = EngineConfig()

#: op -> backend -> kernels (sorted at dispatch time by priority).
_registry: Dict[str, Dict[str, List[Kernel]]] = {}


def configure(auto_freeze_threshold: Optional[int] = None) -> EngineConfig:
    """Set engine policy; returns the live config object.

    ``configure(auto_freeze_threshold=10_000)`` makes :func:`dispatch` freeze
    mutable graphs of >= 10k edges before running ops that have a frozen
    kernel.  ``configure()`` restores the default (no auto-freezing).
    """
    _config.auto_freeze_threshold = auto_freeze_threshold
    return _config


def config() -> EngineConfig:
    """The live engine configuration."""
    return _config


def _same_function(a: Callable[..., Any], b: Callable[..., Any]) -> bool:
    """Whether two callables are the same definition (reload-tolerant)."""
    if a is b:
        return True
    module_a = getattr(a, "__module__", None)
    qualname_a = getattr(a, "__qualname__", None)
    if module_a is None or qualname_a is None:
        return False
    return module_a == getattr(b, "__module__", None) and qualname_a == getattr(
        b, "__qualname__", None
    )


def _describe(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"


def register(
    op: str,
    fn: Callable[..., Any],
    backend: str = FROZEN,
    requires: Union[str, Tuple[str, ...]] = (),
    priority: int = 0,
) -> Kernel:
    """Register ``fn`` as a kernel (functional form of :func:`kernel`).

    Raises :class:`DuplicateKernelError` when a *different* function is
    already registered for ``(op, backend)`` at the same priority — silent
    equal-priority shadowing is an accident of import order.  Registering
    the same function again (by module and qualname) replaces the existing
    entry, so module reloads stay idempotent.
    """
    if isinstance(requires, str):
        requires = (requires,)
    for name in requires:
        if name not in REQUIREMENT_PROBES:
            raise ValueError(f"unknown kernel requirement {name!r}")
    entry = Kernel(op=op, backend=backend, fn=fn, requires=tuple(requires), priority=priority)
    entries = _registry.setdefault(op, {}).setdefault(backend, [])
    # Keep the list priority-descending (stable for ties) at registration
    # time so dispatch never re-sorts on the hot path.
    position = len(entries)
    for index, existing in enumerate(entries):
        if existing.priority == entry.priority:
            if _same_function(existing.fn, fn):
                entries[index] = entry  # idempotent re-registration
                return entry
            raise DuplicateKernelError(
                f"duplicate kernel registration for operation {op!r} on "
                f"backend {backend!r} at priority {priority}: "
                f"{_describe(existing.fn)} is already registered and "
                f"{_describe(fn)} would shadow it silently; pick a distinct "
                "priority"
            )
        if existing.priority < entry.priority:
            position = index
            break
    entries.insert(position, entry)
    return entry


def kernel(
    op: str,
    backend: str = FROZEN,
    requires: Union[str, Tuple[str, ...]] = (),
    priority: int = 0,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the function as the (op, backend) kernel.

    ``priority`` ranks kernels registered for the same (op, backend) pair —
    higher wins when its requirements are met.  The convention is 10 for a
    scipy kernel shadowing a numpy fallback at 0.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        register(op, fn, backend=backend, requires=requires, priority=priority)
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
        register(op, fn, backend=MUTABLE, priority=0)
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


def graph_size(graph: Any) -> int:
    """Edge count used by the auto-freeze policy (0 when undeterminable)."""
    try:
        return graph.number_of_social_edges() + graph.number_of_attribute_edges()
    except AttributeError:
        pass
    try:
        return graph.number_of_edges()
    except AttributeError:
        return 0


def kernels_for(op: str) -> List[Kernel]:
    """All registered kernels of ``op`` (all backends), best-first per backend."""
    try:
        backends = _registry[op]
    except KeyError:
        raise UnknownOperationError(op) from None
    result: List[Kernel] = []
    for entries in backends.values():
        result.extend(entries)  # already priority-descending per backend
    return result


def list_ops() -> List[str]:
    """Sorted names of every registered operation."""
    return sorted(_registry)


def _select(op: str, backend: str) -> Optional[Kernel]:
    for entry in _registry.get(op, {}).get(backend, ()):  # priority-descending
        if entry.available():
            return entry
    return None


def select(op: str, backend: str) -> Optional[Kernel]:
    """Best available kernel registered for ``(op, backend)``, or ``None``.

    Unlike :func:`resolve`, this looks up a backend *by name* instead of
    inferring it from a graph object, which is what operations with no graph
    input (e.g. the generative-model engines, registered under the ``"loop"``
    and ``"vectorized"`` backends) need to pick an implementation.
    """
    if op not in _registry:
        raise UnknownOperationError(op)
    return _select(op, backend)


def resolve(op: str, graph: Any) -> Kernel:
    """The kernel :func:`dispatch` would run for ``graph`` (without running it).

    Resolution order: the best available kernel of the graph's own backend,
    then — for frozen inputs — the portable mutable kernel, which runs
    unchanged on the frozen read-only API.  (Auto-freezing is a
    dispatch-time decision and is not reflected here.)
    """
    if op not in _registry:
        raise UnknownOperationError(op)
    backend = backend_of(graph)
    entry = _select(op, backend)
    if entry is None and backend == FROZEN:
        entry = _select(op, MUTABLE)
    if entry is None:
        raise NoKernelError(
            f"no available kernel for operation {op!r} on backend {backend!r}"
        )
    return entry


#: Auto-freeze cache: mutable graph -> (version at freeze time, frozen view).
#: Weakly keyed so caching never extends a graph's lifetime; validated by the
#: graph's mutation counter, so a stale frozen view is never served and
#: portable fallback loops that re-enter dispatch per element freeze once,
#: not once per element.
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
    :func:`repro.sanitize.checked_dispatch`, which re-runs the next tier
    down on the same inputs and asserts parity (see the module docstring of
    :mod:`repro.sanitize`).  The import is deferred: the sanitizer is never
    loaded — and costs one env lookup per dispatch — unless armed.
    """
    if deps.sanitize_enabled():
        from .. import sanitize

        return sanitize.checked_dispatch(entry, graph, args, kwargs)
    return entry.fn(graph, *args, **kwargs)


def dispatch(op: str, graph: Any, *args: Any, **kwargs: Any) -> Any:
    """Run the best available kernel of ``op`` on ``graph``.

    The graph is always passed to the kernel as the first positional
    argument; remaining arguments are forwarded untouched.
    """
    if op not in _registry:
        raise UnknownOperationError(op)
    if backend_of(graph) == MUTABLE:
        threshold = _config.auto_freeze_threshold
        if threshold is not None and graph_size(graph) >= threshold:
            entry = _select(op, FROZEN)
            if entry is not None:
                frozen = frozen_view(graph)
                if frozen is not None:
                    return _run(entry, frozen, args, kwargs)
        entry = _select(op, MUTABLE)
        if entry is None:
            raise NoKernelError(
                f"no available kernel for operation {op!r} on backend 'mutable'"
            )
        return _run(entry, graph, args, kwargs)
    return _run(resolve(op, graph), graph, args, kwargs)

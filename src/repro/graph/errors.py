"""Exception types raised by the graph substrate.

All graph-layer errors derive from :class:`GraphError` so callers can catch a
single base class when they do not care about the specific failure mode.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for every error raised by :mod:`repro.graph`."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by an operation does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class InvalidNodeKindError(GraphError, TypeError):
    """A social-node operation received an attribute node, or vice versa."""

    def __init__(self, node: object, expected: str) -> None:
        super().__init__(f"node {node!r} is not a {expected} node")
        self.node = node
        self.expected = expected


class SerializationError(GraphError, ValueError):
    """A SAN file could not be parsed or written."""


class ColumnarFormatError(GraphError, ValueError):
    """A columnar graph file is malformed or cannot be interpreted.

    Base class for the named failure modes below so callers can catch one
    exception for "this file is not usable" while tests and the CLI can
    distinguish the specific cause.
    """

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class ColumnarMagicError(ColumnarFormatError):
    """The file does not start with the columnar magic bytes."""


class ColumnarVersionError(ColumnarFormatError):
    """The file's format version is not supported by this reader."""

    def __init__(self, path: object, found: int, supported: int) -> None:
        super().__init__(
            path,
            f"format version {found} is not supported (reader supports <= {supported})",
        )
        self.found = found
        self.supported = supported


class ColumnarTruncatedError(ColumnarFormatError):
    """The file is shorter than its header or declared sections require."""


class ColumnarEndiannessError(ColumnarFormatError):
    """The file's byte-order sentinel does not decode as little-endian."""


class PackedKeyError(GraphError, ValueError):
    """Int pairs cannot be packed into one int64 key each.

    The ids must be non-negative, and ``row * stride + col`` must fit in
    int64 for the largest row.
    """


class FrozenGraphError(GraphError, TypeError):
    """A mutating operation was attempted on a frozen (read-only) graph."""

    def __init__(self, operation: str, type_name: str) -> None:
        super().__init__(
            f"{type_name} is immutable: {operation}() is not supported; "
            f"build a mutable SAN or DiGraph instead"
        )
        self.operation = operation
        self.type_name = type_name


class FrozenIdRangeError(GraphError, ValueError):
    """Edge arrays hold a node id outside the graph's ``0..n-1``.

    The CSR builders check the largest packed key's row and the key stride
    against the node counts right after their sort, before any array is
    sized from the ids, so a corrupt id fails here instead of asking for one
    slot per id up to it.
    """

    def __init__(self, operation: str, node_id: int, count: int) -> None:
        super().__init__(f"{operation}(): node id {node_id} is outside 0..{count - 1}")
        self.operation = operation
        self.node_id = node_id
        self.count = count

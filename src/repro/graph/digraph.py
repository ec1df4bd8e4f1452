"""A directed graph tailored to social-network measurement workloads.

The class keeps both out-adjacency and in-adjacency as dictionaries of sets so
that the metrics used throughout the paper (reciprocity, in/out degree,
knn, triangle closure) are all O(1) or O(degree) operations.  Nodes may be any
hashable object; the library conventionally uses integers for social nodes.

``DiGraph`` is the *mutable* backend, optimised for incremental construction
(simulators, generative models).  Once a graph stops changing, call
:meth:`DiGraph.freeze` to obtain a :class:`repro.graph.frozen.FrozenDiGraph`
— a read-only, CSR-array-backed snapshot of the same graph on which the
metrics layer runs vectorized numpy kernels.  Both backends satisfy the
read-only :class:`repro.graph.protocol.DiGraphView` protocol, so any code
written against that surface accepts either.  Freezing is one-way.

Only the features required by the reproduction are implemented — this is a
purpose-built substrate, not a general graph library.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from .errors import NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]

#: Version stamps shared by every mutable graph in the process: each
#: mutation takes the next one, so two graphs (or two states of one) never
#: carry the same version, and a SAN whose layer was swapped for another
#: graph cannot match a frozen view cached for the old layer.
VERSION_STAMPS = itertools.count(1)


class DiGraph:
    """Directed graph with O(1) edge queries and both adjacency directions.

    Examples
    --------
    >>> g = DiGraph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(2, 1)
    True
    >>> g.has_edge(1, 2), g.has_edge(2, 1)
    (True, True)
    >>> g.out_degree(1), g.in_degree(1)
    (1, 1)
    """

    __slots__ = ("_succ", "_pred", "_num_edges", "_version", "__weakref__")

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._num_edges = 0
        self._version = next(VERSION_STAMPS)
        if edges is not None:
            for source, target in edges:
                self.add_edge(source, target)

    def version(self) -> int:
        """Version stamp: a fresh process-wide value after every state change.

        Lets caches of derived products (e.g. the dispatch engine's
        frozen-view cache) validate that the graph has not changed since the
        product was built.  Stamps come from :data:`VERSION_STAMPS`, so no
        two graphs share one.
        """
        return self._version

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if it is not already present (idempotent)."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._version = next(VERSION_STAMPS)

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._succ)

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: Node, target: Node) -> bool:
        """Add the directed edge ``source -> target``.

        Returns ``True`` if the edge was newly inserted, ``False`` if it was
        already present.  Self-loops are permitted but never created by the
        library's own generators.
        """
        self.add_node(source)
        self.add_node(target)
        if target in self._succ[source]:
            return False
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._num_edges += 1
        self._version = next(VERSION_STAMPS)
        return True

    def remove_edge(self, source: Node, target: Node) -> None:
        if source not in self._succ or target not in self._succ[source]:
            from .errors import EdgeNotFoundError

            raise EdgeNotFoundError(source, target)
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        self._num_edges -= 1
        self._version = next(VERSION_STAMPS)

    def has_edge(self, source: Node, target: Node) -> bool:
        succ = self._succ.get(source)
        return succ is not None and target in succ

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed edges as ``(source, target)`` tuples."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def number_of_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood accessors
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> Set[Node]:
        """Out-neighbors of ``node`` (the paper's :math:`\\Gamma_{s,out}`)."""
        try:
            return self._succ[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def predecessors(self, node: Node) -> Set[Node]:
        """In-neighbors of ``node`` (the paper's :math:`\\Gamma_{s,in}`)."""
        try:
            return self._pred[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors(self, node: Node) -> Set[Node]:
        """Union of in- and out-neighbors, excluding ``node`` itself."""
        union = self.successors(node) | self.predecessors(node)
        union.discard(node)
        return union

    def out_degree(self, node: Node) -> int:
        return len(self.successors(node))

    def in_degree(self, node: Node) -> int:
        return len(self.predecessors(node))

    # ------------------------------------------------------------------
    # Convenience / whole-graph views
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        clone = DiGraph()
        clone._succ = {node: set(targets) for node, targets in self._succ.items()}
        clone._pred = {node: set(sources) for node, sources in self._pred.items()}
        clone._num_edges = self._num_edges
        return clone

    def freeze(self) -> "FrozenDiGraph":
        """Compact this graph into a read-only, CSR-backed snapshot.

        The returned :class:`repro.graph.frozen.FrozenDiGraph` preserves node
        insertion order, answers the whole read-only
        :class:`repro.graph.protocol.DiGraphView` surface, and additionally
        exposes numpy adjacency arrays that the metrics layer uses for
        vectorized kernels.  Subsequent mutation of ``self`` does not affect
        the snapshot.

        Examples
        --------
        >>> g = DiGraph([(1, 2), (2, 1)])
        >>> frozen = g.freeze()
        >>> frozen.has_edge(2, 1)
        True
        >>> frozen.add_edge(2, 3)
        Traceback (most recent call last):
            ...
        repro.graph.errors.FrozenGraphError: FrozenDiGraph is immutable: \
add_edge() is not supported; build a mutable SAN or DiGraph instead
        """
        from .frozen import FrozenDiGraph, interned_pairs

        labels = list(self._succ)
        index = {label: i for i, label in enumerate(labels)}
        src, dst = interned_pairs(self.edges(), self._num_edges, index, index)
        return FrozenDiGraph.from_edge_arrays(labels, src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )

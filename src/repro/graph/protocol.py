"""Read-only graph protocols shared by the mutable and frozen backends.

Both backends answer one small read-only surface: node/edge membership,
iteration, neighborhoods, and degrees.  This module names that surface
explicitly so that code which walks a graph node by node — the dataset
builders, the closure classifiers, the evolution helpers — can be written
against *any* backend: the mutable dict-of-sets
:class:`repro.graph.digraph.DiGraph` / :class:`repro.graph.san.SAN`, or the
CSR-backed :class:`repro.graph.frozen.FrozenDiGraph` /
:class:`repro.graph.frozen.FrozenSAN`.

The protocols are ``runtime_checkable`` so backends can be validated with
``isinstance``; structural typing means a backend never needs to inherit from
them:

>>> from repro.graph import SAN, DiGraph
>>> from repro.graph.protocol import DiGraphView, SANView
>>> isinstance(DiGraph(), DiGraphView)
True
>>> isinstance(SAN(), SANView)
True
>>> isinstance(SAN().freeze(), SANView)
True

The dispatched operations (:mod:`repro.engine`) are narrower: each has one
kernel that reads the frozen backend's CSR arrays, and the engine freezes a
mutable input before calling it — so their inputs are graphs with a
``freeze()`` method, not any object satisfying the protocol.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterator,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

Node = Hashable
Edge = Tuple[Node, Node]


@runtime_checkable
class DiGraphView(Protocol):
    """The read-only surface of a directed social graph backend."""

    # -- node queries --------------------------------------------------
    def has_node(self, node: Node) -> bool: ...

    def nodes(self) -> Iterator[Node]: ...

    def number_of_nodes(self) -> int: ...

    # -- edge queries --------------------------------------------------
    def has_edge(self, source: Node, target: Node) -> bool: ...

    def edges(self) -> Iterator[Edge]: ...

    def number_of_edges(self) -> int: ...

    # -- neighborhoods -------------------------------------------------
    def successors(self, node: Node) -> Set[Node]: ...

    def predecessors(self, node: Node) -> Set[Node]: ...

    def neighbors(self, node: Node) -> Set[Node]: ...

    def out_degree(self, node: Node) -> int: ...

    def in_degree(self, node: Node) -> int: ...


@runtime_checkable
class SANView(Protocol):
    """The read-only surface of a Social-Attribute Network backend.

    Backends additionally expose a ``social`` attribute satisfying
    :class:`DiGraphView` and an ``attributes`` attribute holding the bipartite
    layer; protocols cannot express attribute types structurally at runtime,
    so only the methods are listed here.
    """

    # -- node queries --------------------------------------------------
    def is_social_node(self, node: Node) -> bool: ...

    def is_attribute_node(self, node: Node) -> bool: ...

    def social_nodes(self) -> Iterator[Node]: ...

    def attribute_nodes(self) -> Iterator[Node]: ...

    def number_of_social_nodes(self) -> int: ...

    def number_of_attribute_nodes(self) -> int: ...

    # -- edge queries --------------------------------------------------
    def has_social_edge(self, source: Node, target: Node) -> bool: ...

    def has_attribute_edge(self, social: Node, attribute: Node) -> bool: ...

    def social_edges(self) -> Iterator[Edge]: ...

    def attribute_edges(self) -> Iterator[Edge]: ...

    def number_of_social_edges(self) -> int: ...

    def number_of_attribute_edges(self) -> int: ...

    # -- neighborhoods (paper notation) --------------------------------
    def social_neighbors(self, node: Node) -> Set[Node]: ...

    def attribute_neighbors(self, node: Node) -> Set[Node]: ...

    def common_attributes(self, first: Node, second: Node) -> Set[Node]: ...

    def common_social_neighbors(self, first: Node, second: Node) -> Set[Node]: ...

    # -- degrees -------------------------------------------------------
    def social_out_degree(self, node: Node) -> int: ...

    def social_in_degree(self, node: Node) -> int: ...

    def attribute_degree(self, node: Node) -> int: ...

    # -- whole-graph views ---------------------------------------------
    def densities(self) -> Tuple[float, float]: ...

    def summary(self) -> Dict[str, float]: ...

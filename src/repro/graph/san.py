"""The Social-Attribute Network (SAN) container.

A SAN, following Gong et al. (IMC 2012), is the 4-tuple
``(V_s, V_a, E_s, E_a)``:

* ``V_s`` — social nodes (users),
* ``V_a`` — attribute nodes (e.g. a specific employer or city),
* ``E_s`` — *directed* social links between social nodes,
* ``E_a`` — *undirected* attribute links between a social node and an
  attribute node.

This module combines :class:`repro.graph.digraph.DiGraph` (the social layer)
with :class:`repro.graph.bipartite.BipartiteAttributeGraph` (the attribute
layer) and exposes the neighborhood notation used throughout the paper:

* ``social.successors(u)``     — :math:`\\Gamma_{s,out}(u)`
* ``social.predecessors(u)``   — :math:`\\Gamma_{s,in}(u)`
* ``social_neighbors(u)``      — :math:`\\Gamma_s(u)` (union over both link sets)
* ``attribute_neighbors(u)``   — :math:`\\Gamma_a(u)`

``SAN`` is the *mutable* backend the simulators and generative models
build incrementally.  For measurement, :meth:`SAN.freeze` compacts the
network into a read-only :class:`repro.graph.frozen.FrozenSAN` whose
adjacency lives in CSR numpy arrays; the hot-path metrics (degrees,
reciprocity, joint degree, clustering, attribute metrics) detect the frozen
backend and switch to vectorized kernels.  Both backends satisfy the
read-only :class:`repro.graph.protocol.SANView` protocol; freezing is
one-way.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Set, Tuple

from .bipartite import AttributeInfo, BipartiteAttributeGraph
from .digraph import DiGraph
from .errors import InvalidNodeKindError, NodeNotFoundError

SocialNode = Hashable
AttributeNode = Hashable


class SAN:
    """A directed social graph augmented with undirected attribute links.

    Social nodes and attribute nodes live in disjoint namespaces; the library
    convention is integer ids for social nodes and strings of the form
    ``"type:value"`` (e.g. ``"employer:Google"``) for attribute nodes, but any
    hashable values are accepted as long as the two sets do not overlap.

    Examples
    --------
    >>> san = SAN()
    >>> san.add_social_edge(1, 2)
    True
    >>> san.add_attribute_edge(1, "employer:Google", attr_type="employer")
    True
    >>> san.add_attribute_edge(2, "employer:Google", attr_type="employer")
    True
    >>> sorted(san.common_attributes(1, 2))
    ['employer:Google']
    """

    __slots__ = ("social", "attributes", "__weakref__")

    def __init__(self) -> None:
        self.social = DiGraph()
        self.attributes = BipartiteAttributeGraph()

    def version(self) -> Tuple[int, int]:
        """The version stamps of both layers (see :meth:`DiGraph.version`).

        A pair, not a sum: stamps are unique per graph state, so the pair
        changes when either layer changes or is replaced.
        """
        return self.social.version(), self.attributes.version()

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_social_node(self, node: SocialNode) -> None:
        """Add a social node to both layers (idempotent)."""
        if self.attributes.has_attribute_node(node):
            raise InvalidNodeKindError(node, "social")
        self.social.add_node(node)
        self.attributes.add_social_node(node)

    def add_attribute_node(
        self, node: AttributeNode, attr_type: str = "generic", value: str | None = None
    ) -> None:
        """Register an attribute node with its type metadata (idempotent)."""
        if self.social.has_node(node):
            raise InvalidNodeKindError(node, "attribute")
        self.attributes.add_attribute_node(node, attr_type=attr_type, value=value)

    def is_social_node(self, node: Hashable) -> bool:
        return self.social.has_node(node)

    def is_attribute_node(self, node: Hashable) -> bool:
        return self.attributes.has_attribute_node(node)

    def social_nodes(self) -> Iterator[SocialNode]:
        return self.social.nodes()

    def attribute_nodes(self) -> Iterator[AttributeNode]:
        return self.attributes.attribute_nodes()

    def number_of_social_nodes(self) -> int:
        return self.social.number_of_nodes()

    def number_of_attribute_nodes(self) -> int:
        return self.attributes.number_of_attribute_nodes()

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_social_edge(self, source: SocialNode, target: SocialNode) -> bool:
        """Add the directed social link ``source -> target``."""
        self.add_social_node(source)
        self.add_social_node(target)
        return self.social.add_edge(source, target)

    def add_attribute_edge(
        self,
        social: SocialNode,
        attribute: AttributeNode,
        attr_type: str = "generic",
        value: str | None = None,
    ) -> bool:
        """Add the undirected attribute link ``(social, attribute)``."""
        self.add_social_node(social)
        self.add_attribute_node(attribute, attr_type=attr_type, value=value)
        return self.attributes.add_link(social, attribute)

    def remove_social_edge(self, source: SocialNode, target: SocialNode) -> None:
        """Remove the directed social link ``source -> target`` (churn)."""
        self.social.remove_edge(source, target)

    def remove_attribute_edge(self, social: SocialNode, attribute: AttributeNode) -> None:
        """Remove the attribute link ``(social, attribute)`` (churn).

        The attribute node itself stays, even when its last member leaves —
        matching the append-only node pools of the frozen snapshot views.
        """
        self.attributes.remove_link(social, attribute)

    def has_social_edge(self, source: SocialNode, target: SocialNode) -> bool:
        return self.social.has_edge(source, target)

    def has_attribute_edge(self, social: SocialNode, attribute: AttributeNode) -> bool:
        return self.attributes.has_link(social, attribute)

    def social_edges(self) -> Iterator[Tuple[SocialNode, SocialNode]]:
        return self.social.edges()

    def attribute_edges(self) -> Iterator[Tuple[SocialNode, AttributeNode]]:
        return self.attributes.links()

    def number_of_social_edges(self) -> int:
        return self.social.number_of_edges()

    def number_of_attribute_edges(self) -> int:
        return self.attributes.number_of_links()

    # ------------------------------------------------------------------
    # Neighborhoods (paper notation)
    # ------------------------------------------------------------------
    def social_neighbors(self, node: Hashable) -> Set[SocialNode]:
        """:math:`\\Gamma_s(u)` — social neighbors through either layer.

        For a social node this is the union of its in- and out-neighbors.
        For an attribute node it is the set of users holding the attribute.
        """
        if self.social.has_node(node):
            return self.social.neighbors(node)
        if self.attributes.has_attribute_node(node):
            return set(self.attributes.members_of(node))
        raise NodeNotFoundError(node)

    def attribute_neighbors(self, node: SocialNode) -> Set[AttributeNode]:
        """:math:`\\Gamma_a(u)` — attributes held by a social node."""
        return self.attributes.attributes_of(node)

    def common_attributes(
        self, first: SocialNode, second: SocialNode
    ) -> Set[AttributeNode]:
        """Attributes shared by two social nodes (``a(u, v)`` in the paper)."""
        return self.attributes.common_attributes(first, second)

    def common_social_neighbors(
        self, first: SocialNode, second: SocialNode
    ) -> Set[SocialNode]:
        """Social neighbors (undirected view) shared by two social nodes."""
        return self.social.neighbors(first) & self.social.neighbors(second)

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def social_out_degree(self, node: SocialNode) -> int:
        return self.social.out_degree(node)

    def social_in_degree(self, node: SocialNode) -> int:
        return self.social.in_degree(node)

    def attribute_degree(self, node: SocialNode) -> int:
        """Number of attributes declared by a social node."""
        return self.attributes.attribute_degree(node)

    def attribute_type(self, attribute: AttributeNode) -> str:
        return self.attributes.attribute_type(attribute)

    def attribute_info(self, attribute: AttributeNode) -> AttributeInfo:
        return self.attributes.attribute_info(attribute)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def densities(self) -> Tuple[float, float]:
        """Return ``(social_density, attribute_density)``: |Es|/|Vs| and |Ea|/|Va|."""
        social_nodes = self.number_of_social_nodes()
        attribute_nodes = self.number_of_attribute_nodes()
        social_density = (
            self.number_of_social_edges() / social_nodes if social_nodes else 0.0
        )
        attribute_density = (
            self.number_of_attribute_edges() / attribute_nodes
            if attribute_nodes
            else 0.0
        )
        return social_density, attribute_density

    def copy(self) -> "SAN":
        clone = SAN()
        clone.social = self.social.copy()
        clone.attributes = self.attributes.copy()
        return clone

    def freeze(self) -> "FrozenSAN":
        """Compact this SAN into a read-only, CSR-backed snapshot.

        The returned :class:`repro.graph.frozen.FrozenSAN` shares one compact
        social-id space across the social and attribute layers, answers the
        whole read-only :class:`repro.graph.protocol.SANView` surface, and is
        the backend on which the metrics layer runs its vectorized numpy
        kernels.  Both node kinds keep their insertion order as compact ids.
        Subsequent mutation of ``self`` does not affect the snapshot.

        Examples
        --------
        >>> san = SAN()
        >>> san.add_social_edge(1, 2)
        True
        >>> frozen = san.freeze()
        >>> frozen.has_social_edge(1, 2)
        True
        >>> frozen.summary() == san.summary()
        True
        """
        from .frozen import FrozenSAN, interned_pairs

        social_labels = list(self.social_nodes())
        attr_labels = list(self.attribute_nodes())
        social_index = {label: i for i, label in enumerate(social_labels)}
        attr_index = {label: i for i, label in enumerate(attr_labels)}
        social_src, social_dst = interned_pairs(
            self.social_edges(), self.number_of_social_edges(), social_index, social_index
        )
        link_social, link_attr = interned_pairs(
            self.attribute_edges(), self.number_of_attribute_edges(), social_index, attr_index
        )
        return FrozenSAN.from_edge_arrays(
            social_labels,
            social_src,
            social_dst,
            attr_labels,
            [self.attribute_info(label) for label in attr_labels],
            link_social,
            link_attr,
        )

    def summary(self) -> Dict[str, float]:
        """Compact size summary used by the evolution drivers and reports."""
        social_density, attribute_density = self.densities()
        return {
            "social_nodes": self.number_of_social_nodes(),
            "attribute_nodes": self.number_of_attribute_nodes(),
            "social_edges": self.number_of_social_edges(),
            "attribute_edges": self.number_of_attribute_edges(),
            "social_density": social_density,
            "attribute_density": attribute_density,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SAN(social_nodes={self.number_of_social_nodes()}, "
            f"attribute_nodes={self.number_of_attribute_nodes()}, "
            f"social_edges={self.number_of_social_edges()}, "
            f"attribute_edges={self.number_of_attribute_edges()})"
        )

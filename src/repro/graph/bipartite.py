"""Undirected bipartite layer linking social nodes to attribute nodes.

In the paper's SAN formulation, attribute links :math:`E_a` are undirected
links between a social node ``u`` and an attribute node ``a`` meaning "user u
has attribute a".  Attribute nodes carry an *attribute type* (School, Major,
Employer, City in the Google+ dataset) and a value; the bipartite layer stores
both directions of the incidence so that the paper's attribute metrics
(attribute degree of social nodes, social degree of attribute nodes) are
constant-time lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Set, Tuple

from .digraph import VERSION_STAMPS
from .errors import NodeNotFoundError

SocialNode = Hashable
AttributeNode = Hashable


@dataclass(frozen=True)
class AttributeInfo:
    """Metadata describing an attribute node.

    Attributes
    ----------
    attr_type:
        The attribute category, e.g. ``"employer"`` or ``"city"``.
    value:
        The concrete attribute value, e.g. ``"Google Inc."``.
    """

    attr_type: str
    value: str


class BipartiteAttributeGraph:
    """Undirected bipartite graph between social nodes and attribute nodes."""

    __slots__ = (
        "_social_to_attrs",
        "_attr_to_socials",
        "_attr_info",
        "_num_links",
        "_version",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._social_to_attrs: Dict[SocialNode, Set[AttributeNode]] = {}
        self._attr_to_socials: Dict[AttributeNode, Set[SocialNode]] = {}
        self._attr_info: Dict[AttributeNode, AttributeInfo] = {}
        self._num_links = 0
        self._version = next(VERSION_STAMPS)

    def version(self) -> int:
        """Version stamp: a fresh process-wide value after every state change."""
        return self._version

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_social_node(self, node: SocialNode) -> None:
        if node not in self._social_to_attrs:
            self._social_to_attrs[node] = set()
            self._version = next(VERSION_STAMPS)

    def add_attribute_node(
        self,
        node: AttributeNode,
        attr_type: str = "generic",
        value: str | None = None,
    ) -> None:
        if node not in self._attr_to_socials:
            self._attr_to_socials[node] = set()
            self._attr_info[node] = AttributeInfo(
                attr_type=attr_type, value=str(node) if value is None else value
            )
            self._version = next(VERSION_STAMPS)

    def has_attribute_node(self, node: AttributeNode) -> bool:
        return node in self._attr_to_socials

    def social_nodes(self) -> Iterator[SocialNode]:
        return iter(self._social_to_attrs)

    def attribute_nodes(self) -> Iterator[AttributeNode]:
        return iter(self._attr_to_socials)

    def number_of_social_nodes(self) -> int:
        return len(self._social_to_attrs)

    def number_of_attribute_nodes(self) -> int:
        return len(self._attr_to_socials)

    def attribute_info(self, node: AttributeNode) -> AttributeInfo:
        try:
            return self._attr_info[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def attribute_type(self, node: AttributeNode) -> str:
        return self.attribute_info(node).attr_type

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def add_link(self, social: SocialNode, attribute: AttributeNode) -> bool:
        """Add the undirected attribute link ``(social, attribute)``.

        Both endpoints are created if missing (the attribute node with the
        ``"generic"`` type).  Returns ``True`` when the link is new.
        """
        self.add_social_node(social)
        self.add_attribute_node(attribute)
        if attribute in self._social_to_attrs[social]:
            return False
        self._social_to_attrs[social].add(attribute)
        self._attr_to_socials[attribute].add(social)
        self._num_links += 1
        self._version = next(VERSION_STAMPS)
        return True

    def remove_link(self, social: SocialNode, attribute: AttributeNode) -> None:
        if (
            social not in self._social_to_attrs
            or attribute not in self._social_to_attrs[social]
        ):
            from .errors import EdgeNotFoundError

            raise EdgeNotFoundError(social, attribute)
        self._social_to_attrs[social].discard(attribute)
        self._attr_to_socials[attribute].discard(social)
        self._num_links -= 1
        self._version = next(VERSION_STAMPS)

    def has_link(self, social: SocialNode, attribute: AttributeNode) -> bool:
        attrs = self._social_to_attrs.get(social)
        return attrs is not None and attribute in attrs

    def links(self) -> Iterator[Tuple[SocialNode, AttributeNode]]:
        for social, attrs in self._social_to_attrs.items():
            for attribute in attrs:
                yield (social, attribute)

    def number_of_links(self) -> int:
        return self._num_links

    # ------------------------------------------------------------------
    # Neighborhood accessors
    # ------------------------------------------------------------------
    def attributes_of(self, social: SocialNode) -> Set[AttributeNode]:
        """The paper's :math:`\\Gamma_a(u)`: attribute neighbors of a social node."""
        attrs = self._social_to_attrs.get(social)
        return attrs if attrs is not None else set()

    def members_of(self, attribute: AttributeNode) -> Set[SocialNode]:
        """Social neighbors of an attribute node (users holding the attribute)."""
        try:
            return self._attr_to_socials[attribute]
        except KeyError:
            raise NodeNotFoundError(attribute) from None

    def attribute_degree(self, social: SocialNode) -> int:
        """Number of attributes declared by ``social`` (attribute degree)."""
        return len(self.attributes_of(social))

    def common_attributes(
        self, first: SocialNode, second: SocialNode
    ) -> Set[AttributeNode]:
        """Attributes shared by two social nodes (the paper's ``a(u, v)``)."""
        return self.attributes_of(first) & self.attributes_of(second)

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteAttributeGraph":
        clone = BipartiteAttributeGraph()
        clone._social_to_attrs = {
            node: set(attrs) for node, attrs in self._social_to_attrs.items()
        }
        clone._attr_to_socials = {
            node: set(socials) for node, socials in self._attr_to_socials.items()
        }
        clone._attr_info = dict(self._attr_info)
        clone._num_links = self._num_links
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteAttributeGraph(social={self.number_of_social_nodes()}, "
            f"attributes={self.number_of_attribute_nodes()}, "
            f"links={self.number_of_links()})"
        )

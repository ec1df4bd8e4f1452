"""Helpers for constructing SANs from edge lists and seed shapes."""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

from .san import SAN

SocialEdge = Tuple[Hashable, Hashable]
AttributeRecord = Tuple[Hashable, str, str]


def attribute_node_id(attr_type: str, value: str) -> str:
    """Canonical attribute-node identifier: ``"<type>:<value>"``."""
    return f"{attr_type}:{value}"


def san_from_edge_lists(
    social_edges: Iterable[SocialEdge],
    attribute_records: Iterable[AttributeRecord] = (),
) -> SAN:
    """Build a SAN from a directed social edge list and attribute records.

    Parameters
    ----------
    social_edges:
        Iterable of ``(source, target)`` directed social links.
    attribute_records:
        Iterable of ``(social_node, attr_type, value)`` triples; the attribute
        node id is derived with :func:`attribute_node_id`.
    """
    san = SAN()
    for source, target in social_edges:
        san.add_social_edge(source, target)
    for social, attr_type, value in attribute_records:
        san.add_attribute_edge(
            social, attribute_node_id(attr_type, value), attr_type=attr_type, value=value
        )
    return san


def complete_seed_san(num_social: int = 5, num_attributes: int = 5) -> SAN:
    """The paper's initialization: a complete SAN with a few nodes of each kind.

    Every ordered pair of social nodes is connected in both directions and every
    social node holds every attribute.  Used to seed the generative model
    (Section 5.3, "Initialization").
    """
    san = SAN()
    social_nodes = list(range(num_social))
    attribute_nodes = [attribute_node_id("seed", str(i)) for i in range(num_attributes)]
    for node in social_nodes:
        san.add_social_node(node)
    for source in social_nodes:
        for target in social_nodes:
            if source != target:
                san.add_social_edge(source, target)
    for social in social_nodes:
        for index, attribute in enumerate(attribute_nodes):
            san.add_attribute_edge(
                social, attribute, attr_type="seed", value=str(index)
            )
    return san

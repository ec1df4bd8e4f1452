"""Density metrics (Sections 3.2 and 4.1).

Following the paper (and Kumar et al.), *density* here is the links-to-nodes
ratio, not the graph-theoretic edge fraction:

* social density     ``|E_s| / |V_s|``
* attribute density  ``|E_a| / |V_a|``
"""

from __future__ import annotations

from ..graph.protocol import SANView


def social_density(san: SANView) -> float:
    """Directed social links per social node (``|E_s| / |V_s|``)."""
    nodes = san.number_of_social_nodes()
    if nodes == 0:
        return 0.0
    return san.number_of_social_edges() / nodes


def attribute_density(san: SANView) -> float:
    """Attribute links per attribute node (``|E_a| / |V_a|``)."""
    nodes = san.number_of_attribute_nodes()
    if nodes == 0:
        return 0.0
    return san.number_of_attribute_edges() / nodes


def attribute_declaration_fraction(san: SANView) -> float:
    """Fraction of social nodes declaring at least one attribute.

    The paper reports roughly 22% for Google+ (Section 2.2).
    """
    nodes = list(san.social_nodes())
    if not nodes:
        return 0.0
    declared = sum(1 for node in nodes if san.attribute_degree(node) > 0)
    return declared / len(nodes)

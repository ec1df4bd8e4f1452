"""Degree sequences and distributions for social and attribute nodes.

Four degree notions appear in the paper:

* social out-degree and in-degree of social nodes (Figure 5, lognormal),
* attribute degree of social nodes — how many attributes a user declares
  (Figure 10a, lognormal),
* social degree of attribute nodes — how many users hold an attribute
  (Figure 10b, power-law).

Every public function accepts either backend of the SAN and routes through
the :mod:`repro.engine` kernel registry: on the mutable
:class:`~repro.graph.san.SAN` the portable per-node implementation runs; on
the frozen :class:`~repro.graph.frozen.FrozenSAN` the registered kernels read
the degree sequences straight off the CSR ``indptr`` arrays in one vectorized
operation.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1), (1, 3)])
>>> social_out_degrees(san)
[2, 1, 0]
>>> social_out_degrees(san.freeze())
[2, 1, 0]
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple, Union

import numpy as np

from ..engine import dispatchable, kernel
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.stats import empirical_pmf, log_binned_histogram

Node = Hashable
SANLike = Union[SAN, FrozenSAN]


@dispatchable("social_out_degrees")
def social_out_degrees(san: SANLike) -> List[int]:
    """Out-degree of every social node (in social-node iteration order)."""
    return [san.social_out_degree(node) for node in san.social_nodes()]


@kernel("social_out_degrees")
def _social_out_degrees_frozen(san: FrozenSAN) -> List[int]:
    return san.social.out_degree_array().tolist()


@dispatchable("social_in_degrees")
def social_in_degrees(san: SANLike) -> List[int]:
    """In-degree of every social node (in social-node iteration order)."""
    return [san.social_in_degree(node) for node in san.social_nodes()]


@kernel("social_in_degrees")
def _social_in_degrees_frozen(san: FrozenSAN) -> List[int]:
    return san.social.in_degree_array().tolist()


@dispatchable("social_total_degrees")
def social_total_degrees(san: SANLike) -> List[int]:
    """Number of distinct social neighbors of every social node."""
    return [len(san.social.neighbors(node)) for node in san.social_nodes()]


@kernel("social_total_degrees")
def _social_total_degrees_frozen(san: FrozenSAN) -> List[int]:
    return san.social.undirected_degree_array().tolist()


@dispatchable("attribute_degrees_of_social_nodes")
def attribute_degrees_of_social_nodes(san: SANLike) -> List[int]:
    """Attribute degree (number of declared attributes) of every social node."""
    return [san.attribute_degree(node) for node in san.social_nodes()]


@kernel("attribute_degrees_of_social_nodes")
def _attribute_degrees_frozen(san: FrozenSAN) -> List[int]:
    return san.attributes.attribute_degree_array().tolist()


@dispatchable("social_degrees_of_attribute_nodes")
def social_degrees_of_attribute_nodes(san: SANLike) -> List[int]:
    """Social degree (number of members) of every attribute node."""
    return [san.attribute_social_degree(node) for node in san.attribute_nodes()]


@kernel("social_degrees_of_attribute_nodes")
def _social_degrees_of_attributes_frozen(san: FrozenSAN) -> List[int]:
    return san.attributes.social_degree_array().tolist()


def positive_degrees(degrees: Sequence[int]) -> np.ndarray:
    """The degrees >= 1, as the array the degree-distribution fits read."""
    degrees = np.asarray(degrees)
    return degrees[degrees >= 1]


def degree_distribution(degrees: List[int]) -> Dict[int, float]:
    """Empirical probability mass function of a degree sequence."""
    return empirical_pmf(degrees)


def log_binned_degree_distribution(
    degrees: List[int], bins_per_decade: int = 10
) -> List[Tuple[float, float]]:
    """Log-binned density of a degree sequence, for log-log plotting."""
    return log_binned_histogram(degrees, bins_per_decade=bins_per_decade)


def degree_summary(san: SANLike) -> Dict[str, float]:
    """Mean degrees of the four degree notions, for quick reports."""
    out_degrees = social_out_degrees(san)
    in_degrees = social_in_degrees(san)
    attr_degrees = attribute_degrees_of_social_nodes(san)
    attr_social_degrees = social_degrees_of_attribute_nodes(san)

    def _mean(values: List[int]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "mean_out_degree": _mean(out_degrees),
        "mean_in_degree": _mean(in_degrees),
        "max_out_degree": max(out_degrees) if out_degrees else 0,
        "max_in_degree": max(in_degrees) if in_degrees else 0,
        "mean_attribute_degree": _mean(attr_degrees),
        "mean_attribute_social_degree": _mean(attr_social_degrees),
    }


@dispatchable("out_degrees_for_attribute_value")
def out_degrees_for_attribute_value(san: SANLike, attribute_node: Node) -> List[int]:
    """Social out-degrees of the users holding a specific attribute node.

    Figure 14 plots percentiles of these per Employer / Major value.
    """
    if not san.is_attribute_node(attribute_node):
        return []
    return [
        san.social_out_degree(member)
        for member in san.attributes.members_of(attribute_node)
    ]


@kernel("out_degrees_for_attribute_value")
def _out_degrees_for_attribute_value_frozen(
    san: FrozenSAN, attribute_node: Node
) -> List[int]:
    if not san.is_attribute_node(attribute_node):
        return []
    members = san.attributes.member_indices_of(attribute_node)
    return san.social.out_degree_array()[members].tolist()

"""Degree sequences and distributions for social and attribute nodes.

Four degree notions appear in the paper:

* social out-degree and in-degree of social nodes (Figure 5, lognormal),
* attribute degree of social nodes — how many attributes a user declares
  (Figure 10a, lognormal),
* social degree of attribute nodes — how many users hold an attribute
  (Figure 10b, power-law).

Every public function accepts either backend of the SAN and routes through
the :mod:`repro.engine` kernel registry, which freezes a mutable
:class:`~repro.graph.san.SAN` once; the kernels read the degree sequences
straight off the CSR ``indptr`` arrays of the
:class:`~repro.graph.frozen.FrozenSAN` and return them as int64 arrays.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1), (1, 3)])
>>> social_out_degrees(san).tolist()
[2, 1, 0]
>>> social_out_degrees(san.freeze()).tolist()
[2, 1, 0]
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple, Union

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.stats import log_binned_histogram

Node = Hashable
SANLike = Union[SAN, FrozenSAN]


@dispatchable("social_out_degrees")
def social_out_degrees(san: FrozenSAN) -> np.ndarray:
    """Out-degree of every social node (in social-node iteration order)."""
    return san.social.out_degree_array()


@dispatchable("social_in_degrees")
def social_in_degrees(san: FrozenSAN) -> np.ndarray:
    """In-degree of every social node (in social-node iteration order)."""
    return san.social.in_degree_array()


@dispatchable("attribute_degrees_of_social_nodes")
def attribute_degrees_of_social_nodes(san: FrozenSAN) -> np.ndarray:
    """Attribute degree (number of declared attributes) of every social node."""
    return san.attributes.attribute_degree_array()


@dispatchable("social_degrees_of_attribute_nodes")
def social_degrees_of_attribute_nodes(san: FrozenSAN) -> np.ndarray:
    """Social degree (number of members) of every attribute node."""
    return san.attributes.social_degree_array()


def positive_degrees(degrees: Sequence[int]) -> np.ndarray:
    """The degrees >= 1, as the array the degree-distribution fits read."""
    degrees = np.asarray(degrees)
    return degrees[degrees >= 1]


def log_binned_degree_distribution(
    degrees: List[int], bins_per_decade: int = 10
) -> List[Tuple[float, float]]:
    """Log-binned density of a degree sequence, for log-log plotting."""
    return log_binned_histogram(degrees, bins_per_decade=bins_per_decade)


def degree_summary(san: SANLike) -> Dict[str, float]:
    """Mean degrees of the four degree notions, for quick reports."""
    out_degrees = social_out_degrees(san)
    in_degrees = social_in_degrees(san)

    def _mean(values: np.ndarray) -> float:
        return int(values.sum()) / values.size if values.size else 0.0

    def _max(values: np.ndarray) -> int:
        return int(values.max()) if values.size else 0

    return {
        "mean_out_degree": _mean(out_degrees),
        "mean_in_degree": _mean(in_degrees),
        "max_out_degree": _max(out_degrees),
        "max_in_degree": _max(in_degrees),
        "mean_attribute_degree": _mean(attribute_degrees_of_social_nodes(san)),
        "mean_attribute_social_degree": _mean(social_degrees_of_attribute_nodes(san)),
    }


@dispatchable("out_degrees_for_attribute_value")
def out_degrees_for_attribute_value(san: FrozenSAN, attribute_node: Node) -> List[int]:
    """Social out-degrees of the users holding a specific attribute node.

    Figure 14 plots percentiles of these per Employer / Major value.
    """
    if not san.is_attribute_node(attribute_node):
        return []
    members = san.attributes.member_indices_of(attribute_node)
    return san.social.out_degree_array()[members].tolist()

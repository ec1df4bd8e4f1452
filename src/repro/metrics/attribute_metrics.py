"""Attribute-structure metrics (Section 4.1) and per-type breakdowns.

These extend the social metrics to attribute nodes: the attribute
clustering coefficient, its breakdown by attribute type and by degree, and
the largest attribute nodes, as the Figure 9, 13b and 14 analyses use them.

Every function accepts either SAN backend and dispatches through the
:mod:`repro.engine` registry to a kernel on the frozen backend
(:class:`~repro.graph.frozen.FrozenSAN`).  The top-k ranking is a stable
``argsort`` over the CSR degree array; the clustering-based functions
inherit the sparse whole-graph kernels of :mod:`repro.algorithms.clustering`.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists(
...     [(1, 2)], [(1, "employer", "Google"), (2, "employer", "Google"),
...                (2, "city", "SF")]
... )
>>> top_attribute_nodes(san)
[('employer:Google', 2), ('city:SF', 1)]
>>> attribute_clustering_by_type(san)
{'city': 0.0, 'employer': 0.5}
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.clustering import (
    average_attribute_clustering_coefficient,
    average_clustering_by_attribute_type,
    clustering_by_degree,
)
from ..engine import dispatchable
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN

Node = Hashable
SANLike = Union[SAN, FrozenSAN]


def attribute_clustering_by_type(san: SANLike) -> Dict[str, float]:
    """Average attribute clustering coefficient per attribute type (Figure 13b)."""
    return average_clustering_by_attribute_type(san)


def attribute_clustering_distribution(san: SANLike) -> List[Tuple[int, float]]:
    """Average attribute clustering coefficient vs attribute-node social degree."""
    return clustering_by_degree(san, kind="attribute")


def social_clustering_distribution(san: SANLike) -> List[Tuple[int, float]]:
    """Average social clustering coefficient vs social-node degree (Figure 9a)."""
    return clustering_by_degree(san, kind="social")


def exact_attribute_clustering_coefficient(san: SANLike) -> float:
    """Exact average attribute clustering coefficient (small SANs / tests)."""
    return average_attribute_clustering_coefficient(san)


@dispatchable("top_attribute_nodes")
def top_attribute_nodes(
    san: FrozenSAN, attr_type: Optional[str] = None, count: int = 10
) -> List[Tuple[Node, int]]:
    """Attribute nodes with the most members, optionally restricted to one type.

    Ties are broken by attribute-node insertion order.
    """
    degrees = san.attributes.social_degree_array()
    labels = san.attributes.attribute_labels()
    if attr_type is None:
        candidate_ids = np.arange(degrees.size, dtype=np.int64)
    else:
        type_names = san.attributes.type_names()
        if attr_type not in type_names:
            return []
        code = type_names.index(attr_type)
        candidate_ids = np.nonzero(san.attributes.type_codes() == code)[0]
    order = np.argsort(-degrees[candidate_ids], kind="stable")
    ranked_ids = candidate_ids[order[:count]]
    return [(labels[i], int(degrees[i])) for i in ranked_ids]

"""Attribute-structure metrics (Section 4.1) and per-type breakdowns.

These extend the social metrics to attribute nodes: attribute density,
attribute clustering coefficient, attribute degree distributions, plus helpers
used by the Figure 9 and Figure 13b analyses.

Every function accepts either SAN backend and dispatches through the
:mod:`repro.engine` registry to a kernel on the frozen backend
(:class:`~repro.graph.frozen.FrozenSAN`).  The per-type aggregations run as
``np.bincount`` over the interned attribute-type codes and the top-k ranking
as a stable ``argsort`` over the CSR degree array; the clustering-based
functions inherit the vectorized ``L(u)`` kernel of
:mod:`repro.algorithms.clustering`.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists(
...     [(1, 2)], [(1, "employer", "Google"), (2, "employer", "Google"),
...                (2, "city", "SF")]
... )
>>> attribute_type_counts(san)
{'employer': 1, 'city': 1}
>>> attribute_link_counts_by_type(san)
{'employer': 2, 'city': 1}
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.approx_clustering import approximate_average_clustering
from ..algorithms.clustering import (
    average_attribute_clustering_coefficient,
    average_clustering_by_attribute_type,
    clustering_by_degree,
    node_clustering_coefficient,
)
from ..engine import dispatchable
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.rng import RngLike

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


def approximate_attribute_clustering_coefficient(
    san: SANLike,
    epsilon: float = 0.002,
    nu: float = 100.0,
    num_samples: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Sampled average attribute clustering coefficient (Algorithm 2, Omega = V_a)."""
    return approximate_average_clustering(
        san,
        population=list(san.attribute_nodes()),
        epsilon=epsilon,
        nu=nu,
        num_samples=num_samples,
        rng=rng,
    )


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


@dispatchable("attribute_type_counts")
def attribute_type_counts(san: FrozenSAN) -> Dict[str, int]:
    """Number of distinct attribute nodes per attribute type."""
    type_names = san.attributes.type_names()
    counts = np.bincount(san.attributes.type_codes(), minlength=len(type_names))
    return _per_type_dict(san, type_names, counts)


@dispatchable("attribute_link_counts_by_type")
def attribute_link_counts_by_type(san: FrozenSAN) -> Dict[str, int]:
    """Number of attribute links per attribute type."""
    type_names = san.attributes.type_names()
    link_counts = np.bincount(
        san.attributes.type_codes(),
        weights=san.attributes.social_degree_array(),
        minlength=len(type_names),
    )
    return _per_type_dict(san, type_names, link_counts, skip_zero=True)


def _per_type_dict(
    san: FrozenSAN,
    type_names: List[str],
    values: np.ndarray,
    skip_zero: bool = False,
) -> Dict[str, int]:
    """Assemble a per-type dict in first-seen attribute-node order."""
    codes = san.attributes.type_codes()
    present, first_seen = np.unique(codes, return_index=True)
    result: Dict[str, int] = {}
    for code in present[np.argsort(first_seen)]:
        if not skip_zero or values[code] > 0:
            result[type_names[code]] = int(values[code])
    return result


def attribute_node_clustering(san: SANLike, attribute: Node) -> float:
    """Clustering coefficient of a single attribute node."""
    return node_clustering_coefficient(san, attribute)

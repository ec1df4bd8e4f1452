"""Exact clustering coefficients for directed SANs.

The paper defines, for any node ``u`` (social or attribute),

    c(u) = L(u) / ( |Gamma_s(u)| * (|Gamma_s(u)| - 1) )

where ``Gamma_s(u)`` is the set of *social* neighbors of ``u`` (for a social
node: the union of its in/out neighbors; for an attribute node: the users
holding it) and ``L(u)`` is the number of directed social links among those
neighbors.  The denominator counts ordered pairs, so a fully reciprocally
connected neighborhood has ``c(u) = 1``.

The average social clustering coefficient ``C_s`` averages ``c(u)`` over
social nodes and the average attribute clustering coefficient ``C_a`` over
attribute nodes (Sections 3.4 and 4.1).

Every public function dispatches through the :mod:`repro.engine` registry
to a kernel on the frozen backend (:class:`~repro.graph.frozen.FrozenSAN`;
a mutable SAN is frozen at dispatch).  Each kernel computes ``c(u)`` for
every node at once with scipy sparse products: with neighborhood incidence
``A`` (undirected projection or attribute membership) and loop-free directed
adjacency ``D``, the per-node link counts are ``L = ((A @ D) ⊙ A) · 1`` —
three sparse operations for the entire graph.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1), (1, 3), (3, 2)])
>>> round(average_social_clustering_coefficient(san), 4)
0.6667
>>> clustering_by_degree(san)
[(2, 0.6666666666666666)]
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..engine import dispatchable
from ..engine.deps import scipy_sparse
from ..graph.frozen import FrozenSAN


def _loop_free_directed_matrix(san: FrozenSAN):
    """Directed social adjacency as a scipy CSR matrix, self-loops dropped.

    Memoized on the (immutable) frozen SAN, like the clustering arrays below,
    so a multi-metric report builds each sparse product at most once.
    """
    return san.derived("loop_free_directed_matrix", _build_loop_free_directed_matrix)


def _build_loop_free_directed_matrix(san: FrozenSAN):
    sparse = scipy_sparse()
    n = san.social.number_of_nodes()
    sources, targets = san.social.edge_arrays()
    proper = sources != targets
    return sparse.csr_matrix(
        (
            np.ones(int(np.count_nonzero(proper)), dtype=np.int64),
            (sources[proper], targets[proper]),
        ),
        shape=(n, n),
    )


def _links_per_row(neighborhood_matrix, directed_matrix) -> np.ndarray:
    """``L`` for every row of a neighborhood incidence matrix.

    ``L[u] = sum_{v, w in row u} D[v, w]`` — links among row ``u``'s
    neighborhood — computed as ``((A @ D) ⊙ A) · 1`` in sparse arithmetic.
    """
    paths = neighborhood_matrix @ directed_matrix
    closed = paths.multiply(neighborhood_matrix)
    return np.asarray(closed.sum(axis=1)).ravel()


def _social_clustering_array(san: FrozenSAN) -> np.ndarray:
    """``c(u)`` for every social node (compact-id order), memoized."""
    return san.derived("social_clustering_array", _build_social_clustering_array)


def _build_social_clustering_array(san: FrozenSAN) -> np.ndarray:
    sparse = scipy_sparse()
    indptr, indices = san.social.undirected_csr()
    n = san.social.number_of_nodes()
    neighborhood = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int64), indices, indptr), shape=(n, n)
    )
    links = _links_per_row(neighborhood, _loop_free_directed_matrix(san))
    degrees = san.social.undirected_degree_array()
    pairs = degrees * (degrees - 1)
    return np.divide(
        links, pairs, out=np.zeros(n, dtype=np.float64), where=pairs > 0
    )


def _attribute_clustering_array(san: FrozenSAN) -> np.ndarray:
    """``c(a)`` for every attribute node (compact-id order), memoized."""
    return san.derived("attribute_clustering_array", _build_attribute_clustering_array)


def _build_attribute_clustering_array(san: FrozenSAN) -> np.ndarray:
    sparse = scipy_sparse()
    indptr, indices = san.attributes.attr_to_social_csr()
    num_attrs = san.attributes.number_of_attribute_nodes()
    n = san.social.number_of_nodes()
    membership = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int64), indices, indptr),
        shape=(num_attrs, n),
    )
    links = _links_per_row(membership, _loop_free_directed_matrix(san))
    degrees = san.attributes.social_degree_array()
    pairs = degrees * (degrees - 1)
    return np.divide(
        links, pairs, out=np.zeros(num_attrs, dtype=np.float64), where=pairs > 0
    )


@dispatchable("average_social_clustering_coefficient")
def average_social_clustering_coefficient(san: FrozenSAN) -> float:
    """Exact ``C_s``: mean clustering coefficient over all social nodes."""
    coefficients = _social_clustering_array(san)
    return float(coefficients.mean()) if coefficients.size else 0.0


@dispatchable("average_attribute_clustering_coefficient")
def average_attribute_clustering_coefficient(san: FrozenSAN) -> float:
    """Exact ``C_a``: mean clustering coefficient over all attribute nodes."""
    coefficients = _attribute_clustering_array(san)
    return float(coefficients.mean()) if coefficients.size else 0.0


def _require_kind(kind: str) -> None:
    if kind not in ("social", "attribute"):
        raise ValueError(f"kind must be 'social' or 'attribute', got {kind!r}")


@dispatchable("clustering_by_degree")
def clustering_by_degree(
    san: FrozenSAN, kind: str = "social"
) -> List[Tuple[int, float]]:
    """Average clustering coefficient as a function of node degree (Figure 9a).

    ``kind="social"`` groups social nodes by their social degree (number of
    distinct social neighbors); ``kind="attribute"`` groups attribute nodes by
    their social degree (number of members).  Nodes of degree below two are
    left out.
    """
    _require_kind(kind)
    if kind == "social":
        degrees = san.social.undirected_degree_array()
        coefficients = _social_clustering_array(san)
    else:
        degrees = san.attributes.social_degree_array()
        coefficients = _attribute_clustering_array(san)
    mask = degrees >= 2
    if not np.any(mask):
        return []
    grouped_sums = np.bincount(degrees[mask], weights=coefficients[mask])
    grouped_counts = np.bincount(degrees[mask])
    present = np.nonzero(grouped_counts)[0]
    return [(int(k), float(grouped_sums[k] / grouped_counts[k])) for k in present]


@dispatchable("average_clustering_by_attribute_type")
def average_clustering_by_attribute_type(san: FrozenSAN) -> Dict[str, float]:
    """Average attribute clustering coefficient for every attribute type.

    Keys are the attribute types, sorted; each value averages ``c(a)`` over
    that type's attribute nodes (Figure 13b: Employer vs School vs Major vs
    City community-forming power).  The whole-graph ``c(a)`` array is
    computed once and grouped by the interned type codes.
    """
    coefficients = _attribute_clustering_array(san)
    codes = san.attributes.type_codes()
    type_names = san.attributes.type_names()  # already sorted
    sums = np.bincount(codes, weights=coefficients, minlength=len(type_names))
    counts = np.bincount(codes, minlength=len(type_names))
    return {
        name: float(sums[code] / counts[code]) if counts[code] else 0.0
        for code, name in enumerate(type_names)
    }

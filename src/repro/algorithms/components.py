"""Connected-component algorithms (weakly connected components on the social layer).

The Google+ crawl in the paper covers a large weakly connected component
(Section 2.2); the crawler substrate and several metrics need WCC extraction.

Both entry points dispatch through the :mod:`repro.engine` registry to
kernels on the frozen graph (:class:`~repro.graph.frozen.FrozenDiGraph`; a
mutable graph is frozen at dispatch).  The weak components come from
``scipy.sparse.csgraph.connected_components`` over the undirected CSR, and
the strong components from its ``connection="strong"`` mode over the
out-CSR.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Union

import numpy as np

from ..engine import dispatchable
from ..engine.deps import scipy_csgraph, scipy_sparse
from ..graph.digraph import DiGraph
from ..graph.frozen import FrozenDiGraph
from ..graph.protocol import SANView

Node = Hashable
GraphLike = Union[DiGraph, FrozenDiGraph]


def _components_from_labels(graph: FrozenDiGraph, labels: np.ndarray) -> List[Set[Node]]:
    """Group compact ids by component label, largest component first.

    Ties are broken by the earliest member in node-iteration order, for
    both component flavours.
    """
    node_labels = graph.labels()
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.nonzero(np.diff(sorted_labels))[0] + 1
    groups = np.split(order, boundaries)
    # np.unique(return_index) gives each component's first-appearance position.
    _, first_seen = np.unique(labels, return_index=True)
    ranked = sorted(
        zip(groups, first_seen), key=lambda pair: (-pair[0].size, pair[1])
    )
    return [{node_labels[i] for i in group} for group, _ in ranked]


@dispatchable("weakly_connected_components")
def weakly_connected_components(graph: FrozenDiGraph) -> List[Set[Node]]:
    """All weakly connected components, largest first.

    Ties between equal-size components are broken by their earliest member
    in node-iteration order.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return []
    sparse = scipy_sparse()
    csgraph = scipy_csgraph()
    indptr, indices = graph.undirected_csr()
    adjacency = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n)
    )
    _, labels = csgraph.connected_components(adjacency, directed=False)
    return _components_from_labels(graph, labels)


def largest_weakly_connected_component(graph: GraphLike) -> Set[Node]:
    """Node set of the largest WCC (empty set for an empty graph)."""
    components = weakly_connected_components(graph)
    return components[0] if components else set()


def wcc_fraction(graph: GraphLike) -> float:
    """Fraction of nodes inside the largest WCC."""
    total = graph.number_of_nodes()
    if total == 0:
        return 0.0
    return len(largest_weakly_connected_component(graph)) / total


def restrict_san_to_largest_wcc(san: SANView) -> SANView:
    """Induced SAN on the largest weakly connected social component.

    Accepts either backend; a frozen input yields a frozen result (extracted
    directly from the CSR arrays via ``social_subgraph``).
    """
    component = largest_weakly_connected_component(san.social)
    return san.social_subgraph(component)


@dispatchable("strongly_connected_components")
def strongly_connected_components(graph: FrozenDiGraph) -> List[Set[Node]]:
    """Strongly connected components, largest first.

    Ties between equal-size components are broken by their earliest member
    in node-iteration order.  Included for completeness of the substrate
    (reciprocity-heavy subgraphs are strongly connected).
    """
    n = graph.number_of_nodes()
    if n == 0:
        return []
    sparse = scipy_sparse()
    csgraph = scipy_csgraph()
    indptr, indices = graph.out_csr()
    adjacency = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n)
    )
    _, labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    return _components_from_labels(graph, labels)

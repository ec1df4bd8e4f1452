"""Connected-component algorithms (weakly connected components on the social layer).

The Google+ crawl in the paper covers a large weakly connected component
(Section 2.2); the crawler substrate and several metrics need WCC extraction.

:func:`weakly_connected_components` dispatches through the
:mod:`repro.engine` registry to a kernel on the frozen graph
(:class:`~repro.graph.frozen.FrozenDiGraph`; a mutable graph is frozen at
dispatch), which runs ``scipy.sparse.csgraph.connected_components`` over the
undirected CSR.
"""

from __future__ import annotations

from typing import Hashable, List, Set

import numpy as np

from ..engine import dispatchable
from ..engine.deps import scipy_csgraph, scipy_sparse
from ..graph.frozen import FrozenDiGraph

Node = Hashable


def _components_from_labels(graph: FrozenDiGraph, labels: np.ndarray) -> List[Set[Node]]:
    """Group compact ids by component label, largest component first.

    Ties are broken by the earliest member in node-iteration order.
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

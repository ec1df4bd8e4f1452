"""Connected-component algorithms (weakly connected components on the social layer).

The Google+ crawl in the paper covers a large weakly connected component
(Section 2.2); the crawler substrate and several metrics need WCC extraction.

Both entry points dispatch through the :mod:`repro.engine` registry.  On a
frozen graph (:class:`~repro.graph.frozen.FrozenDiGraph`) the weak components
come from ``scipy.sparse.csgraph.connected_components`` over the undirected
CSR, and the strong components from its ``connection="strong"`` mode over
the out-CSR.  The portable bodies (a BFS sweep and an iterative Tarjan) run
on mutable graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set, Union

import numpy as np

from ..engine import dispatchable, kernel
from ..engine.deps import scipy_csgraph, scipy_sparse
from ..graph.digraph import DiGraph
from ..graph.frozen import FrozenDiGraph
from ..graph.protocol import SANView

Node = Hashable
GraphLike = Union[DiGraph, FrozenDiGraph]


@dispatchable("weakly_connected_components")
def weakly_connected_components(graph: GraphLike) -> List[Set[Node]]:
    """All weakly connected components, largest first."""
    adjacency = graph.to_undirected_adjacency()
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for start in adjacency:
        if start in seen:
            continue
        component: Set[Node] = {start}
        frontier = deque([start])
        seen.add(start)
        while frontier:
            node = frontier.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def _components_from_labels(graph: FrozenDiGraph, labels: np.ndarray) -> List[Set[Node]]:
    """Group compact ids by component label, largest component first.

    Ties are broken by the earliest member in node-iteration order — the
    canonical ordering every backend of both component flavours agrees on
    (the portable implementations sort the same way).
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


@kernel("weakly_connected_components")
def _weak_components_frozen_sparse(graph: FrozenDiGraph) -> List[Set[Node]]:
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
def strongly_connected_components(graph: GraphLike) -> List[Set[Node]]:
    """Strongly connected components via iterative Tarjan, largest first.

    Ties between equal-size components are broken by their earliest member
    in node-iteration order, so the result is identical on every backend
    (Tarjan's completion order is an implementation detail and is not
    exposed).  Included for completeness of the substrate (reciprocity-heavy
    subgraphs are strongly connected); implemented iteratively to avoid
    recursion limits on large crawls.
    """
    index_counter = 0
    indices: Dict[Node, int] = {}
    lowlinks: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[Set[Node]] = []

    for root in graph.nodes():
        if root in indices:
            continue
        work: List[tuple] = [(root, iter(graph.successors(root)))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlinks[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    position = {node: index for index, node in enumerate(graph.nodes())}
    components.sort(
        key=lambda component: (-len(component), min(position[n] for n in component))
    )
    return components


@kernel("strongly_connected_components")
def _strong_components_frozen_sparse(graph: FrozenDiGraph) -> List[Set[Node]]:
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

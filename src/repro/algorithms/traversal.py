"""Breadth-first traversal and shortest-path distance utilities.

The paper measures directed distances (Section 3.3): ``dist(u, v)`` is the
length of the shortest *directed* path from ``u`` to ``v`` using social links
only.  The attribute distance (Section 4.1) is one plus the minimum social
distance between the members of two attribute nodes, which is one
multi-source BFS seeded with every member of the first.

:func:`bfs_distances`, :func:`attribute_distance` and
:func:`sample_distance_distribution` dispatch through the :mod:`repro.engine`
registry: on a frozen graph (:class:`~repro.graph.frozen.FrozenDiGraph` or
:class:`~repro.graph.frozen.FrozenSAN`) the BFS runs as a frontier-array
sweep over the CSR arrays — each level expands every frontier node's
successor list in one ``gather_rows`` call — instead of a Python deque loop,
and the sampled distance histogram accumulates with ``np.bincount``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional, Set, Union

import numpy as np

from ..engine import dispatchable, kernel
from ..graph.digraph import DiGraph
from ..graph.frozen import FrozenDiGraph, FrozenSAN, gather_rows
from ..graph.protocol import SANView
from ..utils.rng import RngLike, ensure_rng

Node = Hashable
GraphLike = Union[DiGraph, FrozenDiGraph]


@dispatchable("bfs_distances")
def bfs_distances(
    graph: GraphLike, source: Node, max_depth: Optional[int] = None
) -> Dict[Node, int]:
    """Directed BFS distances from ``source`` to every reachable node.

    ``max_depth`` truncates the search, which keeps distance-distribution
    sampling cheap on large graphs.
    """
    distances: Dict[Node, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.successors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def frontier_bfs_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Union[int, np.ndarray],
    max_depth: Optional[int] = None,
    stop: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Array BFS over a CSR adjacency: distance per compact id, -1 unreachable.

    ``sources`` is one compact id or an array of them, all at distance 0.
    The whole frontier is expanded per level with one :func:`gather_rows`
    call, so the per-level cost is a handful of vectorized operations rather
    than one Python iteration per edge.  With a boolean ``stop`` mask over
    compact ids, the sweep ends at the first level that reaches a stop node:
    nodes beyond it keep -1.
    """
    n = indptr.size - 1
    distances = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    distances[frontier] = 0
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        if stop is not None and stop[frontier].any():
            break
        neighbors, _ = gather_rows(indptr, indices, frontier)
        fresh = neighbors[distances[neighbors] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        depth += 1
        distances[fresh] = depth
        frontier = fresh
    return distances


@kernel("bfs_distances")
def _bfs_distances_frozen(
    graph: FrozenDiGraph, source: Node, max_depth: Optional[int] = None
) -> Dict[Node, int]:
    indptr, indices = graph.out_csr()
    distances = frontier_bfs_levels(
        indptr, indices, graph.index_of(source), max_depth=max_depth
    )
    labels = graph.labels()
    reached = np.nonzero(distances >= 0)[0]
    return {labels[i]: int(distances[i]) for i in reached}


def undirected_bfs_distances(
    adjacency: Dict[Node, Set[Node]], source: Node, max_depth: Optional[int] = None
) -> Dict[Node, int]:
    """BFS distances over a prebuilt undirected adjacency map."""
    distances: Dict[Node, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in adjacency.get(node, ()):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def shortest_path_length(graph: GraphLike, source: Node, target: Node) -> Optional[int]:
    """Directed shortest-path length, or ``None`` when ``target`` is unreachable."""
    if source == target:
        return 0
    distances: Dict[Node, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        for neighbor in graph.successors(node):
            if neighbor == target:
                return depth + 1
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return None


@dispatchable("sample_distance_distribution")
def sample_distance_distribution(
    graph: GraphLike,
    num_sources: int = 200,
    rng: RngLike = None,
    max_depth: Optional[int] = None,
) -> Dict[int, int]:
    """Histogram of directed pairwise distances from a random sample of sources.

    The paper reports the distribution of pairwise distances (dominant mode at
    six hops); computing all-pairs distances is infeasible at scale, so we
    sample BFS sources uniformly at random, which yields an unbiased estimate
    of the distance histogram restricted to reachable pairs.
    """
    generator = ensure_rng(rng)
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    if num_sources >= len(nodes):
        sources = nodes
    else:
        sources = generator.sample(nodes, num_sources)
    histogram: Dict[int, int] = {}
    for source in sources:
        for node, distance in bfs_distances(graph, source, max_depth=max_depth).items():
            if node == source:
                continue
            histogram[distance] = histogram.get(distance, 0) + 1
    return dict(sorted(histogram.items()))


@kernel("sample_distance_distribution")
def _sample_distance_distribution_frozen(
    graph: FrozenDiGraph,
    num_sources: int = 200,
    rng: RngLike = None,
    max_depth: Optional[int] = None,
) -> Dict[int, int]:
    generator = ensure_rng(rng)
    nodes = graph.labels()
    if not nodes:
        return {}
    if num_sources >= len(nodes):
        sources = list(nodes)
    else:
        sources = generator.sample(list(nodes), num_sources)
    indptr, indices = graph.out_csr()
    counts: Optional[np.ndarray] = None
    for source in sources:
        distances = frontier_bfs_levels(
            indptr, indices, graph.index_of(source), max_depth=max_depth
        )
        reached = distances[distances > 0]  # drop unreachable and the source
        if reached.size == 0:
            continue
        histogram = np.bincount(reached)
        if counts is None:
            counts = histogram
        elif histogram.size > counts.size:
            histogram[: counts.size] += counts
            counts = histogram
        else:
            counts[: histogram.size] += histogram
    if counts is None:
        return {}
    present = np.nonzero(counts)[0]
    return {int(distance): int(counts[distance]) for distance in present}


def effective_diameter_from_histogram(
    histogram: Dict[int, int], quantile: float = 0.9
) -> float:
    """Interpolated effective diameter from a distance histogram.

    Follows the standard definition (Leskovec et al.): the smallest ``d`` such
    that at least ``quantile`` of reachable pairs are within distance ``d``,
    linearly interpolated between integer distances.
    """
    if not histogram:
        return 0.0
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    target = quantile * total
    cumulative = 0
    previous_cumulative = 0
    for distance in sorted(histogram):
        previous_cumulative = cumulative
        cumulative += histogram[distance]
        if cumulative >= target:
            if cumulative == previous_cumulative:
                return float(distance)
            fraction = (target - previous_cumulative) / (cumulative - previous_cumulative)
            return (distance - 1) + fraction
    return float(max(histogram))


@dispatchable("attribute_distance")
def attribute_distance(
    san: SANView, attribute_a: Node, attribute_b: Node, max_depth: Optional[int] = None
) -> Optional[int]:
    """The paper's attribute distance (Section 4.1).

    ``dist(a, b) = min{dist(u, v) : u in Gamma_s(a), v in Gamma_s(b)} + 1``:
    one plus the minimum directed social distance between any member of ``a``
    and any member of ``b``.  Returns ``None`` when no member of ``b`` is
    reachable from any member of ``a`` within ``max_depth`` hops.

    The minimum over members is one multi-source BFS seeded with every
    member of ``a`` that returns at the first level touching a member of
    ``b``.  On frozen inputs it runs as a frontier-array sweep.
    """
    members_a = san.attributes.members_of(attribute_a)
    members_b = san.attributes.members_of(attribute_b)
    if not members_a or not members_b:
        return None
    if not members_a.isdisjoint(members_b):
        return 1
    distances: Dict[Node, int] = dict.fromkeys(members_a, 0)
    frontier = deque(members_a)
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            break  # the deque is in level order: every later node is as deep
        for neighbor in san.social.successors(node):
            if neighbor not in distances:
                if neighbor in members_b:
                    return depth + 2
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return None


@kernel("attribute_distance")
def _attribute_distance_frozen(
    san: FrozenSAN, attribute_a: Node, attribute_b: Node, max_depth: Optional[int] = None
) -> Optional[int]:
    members_a = san.attributes.member_indices_of(attribute_a)
    members_b = san.attributes.member_indices_of(attribute_b)
    if members_a.size == 0 or members_b.size == 0:
        return None
    indptr, indices = san.social.out_csr()
    stop = np.zeros(indptr.size - 1, dtype=bool)
    stop[members_b] = True
    distances = frontier_bfs_levels(
        indptr, indices, members_a, max_depth=max_depth, stop=stop
    )[members_b]
    reached = distances[distances >= 0]
    return int(reached.min()) + 1 if reached.size else None


def sample_attribute_distance_distribution(
    san: SANView,
    num_pairs: int = 100,
    rng: RngLike = None,
    max_depth: Optional[int] = None,
) -> Dict[int, int]:
    """Histogram of attribute distances over random attribute-node pairs."""
    generator = ensure_rng(rng)
    attributes = [
        node
        for node in san.attribute_nodes()
        if san.attribute_social_degree(node) > 0
    ]
    if len(attributes) < 2:
        return {}
    histogram: Dict[int, int] = {}
    for _ in range(num_pairs):
        first, second = generator.sample(attributes, 2)
        distance = attribute_distance(san, first, second, max_depth=max_depth)
        if distance is not None:
            histogram[distance] = histogram.get(distance, 0) + 1
    return dict(sorted(histogram.items()))

"""Breadth-first traversal and shortest-path distance utilities.

The paper measures directed distances (Section 3.3): ``dist(u, v)`` is the
length of the shortest *directed* path from ``u`` to ``v`` using social links
only.  The attribute distance (Section 4.1) is one plus the minimum social
distance between the members of two attribute nodes, which is one
multi-source BFS seeded with every member of the first.

:func:`bfs_distances`, :func:`attribute_distance`,
:func:`sample_distance_distribution` and
:func:`sample_attribute_distance_distribution` dispatch through the
:mod:`repro.engine` registry to kernels on the frozen graph
(:class:`~repro.graph.frozen.FrozenDiGraph` or
:class:`~repro.graph.frozen.FrozenSAN`; a mutable graph is frozen at
dispatch).  The BFS runs as a frontier-array sweep over the CSR arrays —
each level expands every frontier node's successor list in one
``gather_rows`` call — and the sampled distance histogram accumulates with
``np.bincount``.  The sampled attribute distances are bit-parallel: after
drawing every pair, the kernel answers 64 pairs per multi-source BFS, one
bit of a uint64 mask per pair, each level one ``np.bitwise_or.reduceat``
over the in-CSR (after Then et al., "The More the Merrier", VLDB 2014).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenDiGraph, FrozenSAN, gather_rows
from ..utils.rng import RngLike, ensure_rng

Node = Hashable


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


@dispatchable("bfs_distances")
def bfs_distances(
    graph: FrozenDiGraph, source: Node, max_depth: Optional[int] = None
) -> Dict[Node, int]:
    """Directed BFS distances from ``source`` to every reachable node.

    ``max_depth`` truncates the search, which keeps distance-distribution
    sampling cheap on large graphs.
    """
    indptr, indices = graph.out_csr()
    distances = frontier_bfs_levels(
        indptr, indices, graph.index_of(source), max_depth=max_depth
    )
    labels = graph.labels()
    reached = np.nonzero(distances >= 0)[0]
    return {labels[i]: int(distances[i]) for i in reached}


@dispatchable("sample_distance_distribution")
def sample_distance_distribution(
    graph: FrozenDiGraph,
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
    san: FrozenSAN, attribute_a: Node, attribute_b: Node, max_depth: Optional[int] = None
) -> Optional[int]:
    """The paper's attribute distance (Section 4.1).

    ``dist(a, b) = min{dist(u, v) : u in Gamma_s(a), v in Gamma_s(b)} + 1``:
    one plus the minimum directed social distance between any member of ``a``
    and any member of ``b``.  Returns ``None`` when no member of ``b`` is
    reachable from any member of ``a`` within ``max_depth`` hops.

    The minimum over members is one multi-source BFS seeded with every
    member of ``a`` that stops at the first level touching a member of
    ``b``, run as a frontier-array sweep.
    """
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


#: Attribute pairs answered per bit-parallel sweep: one bit of a uint64 each.
_PAIRS_PER_SWEEP = 64


@dispatchable("sample_attribute_distance_distribution")
def sample_attribute_distance_distribution(
    san: FrozenSAN,
    num_pairs: int = 100,
    rng: RngLike = None,
    max_depth: Optional[int] = None,
) -> Dict[int, int]:
    """Histogram of attribute distances over random attribute-node pairs.

    Each pair is two distinct attribute nodes with at least one member, drawn
    with ``rng.sample`` over those nodes in id order.  All pairs are drawn
    first, then answered 64 per multi-source BFS sweep: pair ``j`` of a
    sweep owns bit ``j`` of per-node uint64 frontier, visited and target
    masks; see :func:`_attribute_distances_bit_parallel`.
    """
    generator = ensure_rng(rng)
    eligible = np.nonzero(san.attributes.social_degree_array() > 0)[0].tolist()
    if len(eligible) < 2:
        return {}
    pairs = [generator.sample(eligible, 2) for _ in range(num_pairs)]
    histogram: Dict[int, int] = {}
    for start in range(0, len(pairs), _PAIRS_PER_SWEEP):
        batch = pairs[start : start + _PAIRS_PER_SWEEP]
        for distance in _attribute_distances_bit_parallel(san, batch, max_depth):
            if distance is not None:
                histogram[distance] = histogram.get(distance, 0) + 1
    return dict(sorted(histogram.items()))


def _attribute_distances_bit_parallel(
    san: FrozenSAN, pairs: Sequence[Sequence[int]], max_depth: Optional[int]
) -> List[Optional[int]]:
    """Attribute distance of up to 64 ``(a, b)`` attribute-id pairs at once.

    Pair ``j`` seeds bit ``j`` of the frontier at every member of ``a`` and
    of the target mask at every member of ``b``.  Each level ORs the
    frontier bits of every node's in-neighbours (one ``bitwise_or.reduceat``
    over the in-CSR), keeps the bits a node has not seen yet, and ends the
    pairs whose new bits meet their target: their distance is the level
    plus one, or 1 when the member sets overlap.  Levels stop at
    ``max_depth`` as in :func:`frontier_bfs_levels`.
    """
    member_indptr, member_indices = san.attributes.attr_to_social_csr()
    n = san.social.number_of_nodes()
    frontier = np.zeros(n, dtype=np.uint64)
    targets = np.zeros(n, dtype=np.uint64)
    for bit, (first, second) in enumerate(pairs):
        flag = np.uint64(1 << bit)
        frontier[member_indices[member_indptr[first] : member_indptr[first + 1]]] |= flag
        targets[member_indices[member_indptr[second] : member_indptr[second + 1]]] |= flag
    distances: List[Optional[int]] = [None] * len(pairs)
    pending = (1 << len(pairs)) - 1
    hits = int(np.bitwise_or.reduce(frontier & targets))
    indptr, indices = san.social.in_csr()
    nonempty = np.diff(indptr) > 0
    offsets = indptr[:-1][nonempty]
    visited = frontier.copy()
    depth = 0
    while True:
        for bit in range(len(pairs)):
            if hits >> bit & 1:
                distances[bit] = depth + 1
        pending &= ~hits
        if not pending or not indices.size or (max_depth is not None and depth >= max_depth):
            break
        frontier &= np.uint64(pending)
        if not frontier.any():
            break
        reached = np.zeros(n, dtype=np.uint64)
        reached[nonempty] = np.bitwise_or.reduceat(frontier[indices], offsets)
        frontier = reached & ~visited
        visited |= frontier
        depth += 1
        hits = int(np.bitwise_or.reduce(frontier & targets)) & pending
    return distances

"""Random walks on the social layer of a SAN.

Both application benchmarks (SybilLimit random routes and Drac-style
anonymous-communication path selection) are built on random walks over the
undirected projection of the social graph, optionally with a degree cap as the
paper imposes (bound of 100).

The batch entry point :func:`random_walks` dispatches through the
:mod:`repro.engine` registry to a kernel on the frozen graph
(:class:`~repro.graph.frozen.FrozenDiGraph`; a mutable graph is frozen at
dispatch): all walks advance together, one vectorized step per hop over a
(possibly degree-capped) CSR adjacency, with a numpy ``Generator`` seeded
from the caller's ``random.Random`` stream.
:func:`capped_undirected_adjacency` likewise slices neighbor lists straight
out of the undirected CSR rows.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenDiGraph
from ..utils.rng import RngLike, ensure_rng

Node = Hashable


@dispatchable("capped_undirected_adjacency")
def capped_undirected_adjacency(
    graph: FrozenDiGraph, degree_cap: Optional[int] = None, rng: RngLike = None
) -> Dict[Node, List[Node]]:
    """Undirected adjacency lists with each node's neighbor list capped.

    SybilLimit bounds the effective node degree; when a node exceeds the cap a
    uniform subset of its neighbors of exactly ``degree_cap`` is retained.  The
    cap is applied per endpoint, so the resulting structure may be asymmetric
    (as in the deployed protocol where each node selects its own edges).
    Neighbor lists keep the frozen graph's node order.
    """
    indptr, indices = capped_undirected_csr(graph, degree_cap=degree_cap, rng=rng)
    labels = graph.labels()
    return {
        node: [labels[j] for j in indices[indptr[i] : indptr[i + 1]]]
        for i, node in enumerate(labels)
    }


def capped_undirected_csr(
    graph: FrozenDiGraph, degree_cap: Optional[int] = None, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-capped undirected CSR of a frozen graph (kernel helper).

    Nodes within the cap keep their CSR row as-is; rows over the cap retain a
    uniform sample of exactly ``degree_cap`` neighbors.  Like the adjacency
    dict above, the cap is per row, so the result may be asymmetric.
    """
    indptr, indices = graph.undirected_csr()
    if degree_cap is None:
        return indptr, indices
    degrees = np.diff(indptr)
    over = np.nonzero(degrees > degree_cap)[0]
    if over.size == 0:
        return indptr, indices
    generator = ensure_rng(rng)
    # Drop (deg - cap) random entries from each over-cap row via one boolean
    # mask over the indices array; rows within the cap are copied untouched
    # and row sortedness survives because dropping preserves order.
    keep = np.ones(indices.size, dtype=bool)
    for i in over:
        row_start = int(indptr[i])
        row_degree = int(degrees[i])
        dropped = generator.sample(range(row_degree), row_degree - degree_cap)
        keep[row_start + np.asarray(dropped, dtype=np.int64)] = False
    new_counts = np.minimum(degrees, degree_cap)
    new_indptr = np.zeros(indptr.size, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    return new_indptr, indices[keep]


def random_walk(
    adjacency: Dict[Node, Sequence[Node]],
    start: Node,
    length: int,
    rng: RngLike = None,
) -> List[Node]:
    """A simple random walk of ``length`` steps starting at ``start``.

    Returns the visited node sequence including the start; the walk stops early
    at a node with no neighbors.
    """
    generator = ensure_rng(rng)
    path = [start]
    current = start
    for _ in range(length):
        neighbors = adjacency.get(current)
        if not neighbors:
            break
        current = neighbors[generator.randrange(len(neighbors))]
        path.append(current)
    return path


def batched_walk_ids(
    indptr: np.ndarray,
    indices: np.ndarray,
    start_ids: np.ndarray,
    length: int,
    np_rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized walks over a CSR adjacency, as a ``(walks, length+1)`` id matrix.

    Column 0 holds the start ids; a walk that reaches a degree-0 node stops
    and pads the rest of its row with -1.
    """
    num_walks = int(start_ids.size)
    paths = np.full((num_walks, length + 1), -1, dtype=np.int64)
    paths[:, 0] = start_ids
    if num_walks == 0 or length == 0:
        return paths
    degrees = np.diff(indptr)
    current = start_ids.astype(np.int64, copy=True)
    alive = np.ones(num_walks, dtype=bool)
    all_alive = True
    for step in range(1, length + 1):
        current_degrees = degrees[current]
        if all_alive and (current_degrees > 0).all():
            # Fast path: every walk advances, no per-walk bookkeeping needed.
            current = indices[indptr[current] + np_rng.integers(0, current_degrees)]
            paths[:, step] = current
            continue
        all_alive = False
        alive &= current_degrees > 0
        if not alive.any():
            break
        active = np.nonzero(alive)[0]
        active_nodes = current[active]
        active_degrees = degrees[active_nodes]
        draws = np_rng.integers(0, active_degrees)
        next_nodes = indices[indptr[active_nodes] + draws]
        current[active] = next_nodes
        paths[active, step] = next_nodes
    return paths


#: Walks per RNG chunk of the batched kernel.  Chunk ``i`` draws from
#: ``default_rng([base_seed, i])``, so the chunk size and the per-chunk
#: streams together fix the paths a given seed produces.
WALK_CHUNK_SIZE = 2048


def _chunked_walk_ids(
    indptr: np.ndarray,
    indices: np.ndarray,
    start_ids: np.ndarray,
    length: int,
    base_seed: int,
) -> np.ndarray:
    """The walk batch in fixed-size chunks, one RNG stream per chunk."""
    chunks = [
        start_ids[lo : lo + WALK_CHUNK_SIZE]
        for lo in range(0, start_ids.size, WALK_CHUNK_SIZE)
    ]
    if not chunks:
        return np.full((0, length + 1), -1, dtype=np.int64)
    paths = [
        batched_walk_ids(
            indptr, indices, chunk, length, np.random.default_rng([base_seed, i])
        )
        for i, chunk in enumerate(chunks)
    ]
    return np.concatenate(paths) if len(paths) > 1 else paths[0]


@dispatchable("random_walks")
def random_walks(
    graph: FrozenDiGraph,
    starts: Sequence[Node],
    length: int,
    degree_cap: Optional[int] = None,
    rng: RngLike = None,
) -> List[List[Node]]:
    """Batch of random walks over the (optionally capped) undirected projection.

    Returns one visited-node path per start, each including its start node and
    stopping early at dead ends — the batched counterpart of calling
    :func:`random_walk` per start on :func:`capped_undirected_adjacency`.
    All walks advance together, one vectorized step per hop, in chunks of
    :data:`WALK_CHUNK_SIZE` walks with one numpy stream each, seeded from
    ``rng``.
    """
    generator = ensure_rng(rng)
    indptr, indices = capped_undirected_csr(graph, degree_cap=degree_cap, rng=generator)
    start_ids = np.fromiter(
        (graph.index_of(start) for start in starts), dtype=np.int64, count=len(starts)
    )
    base_seed = generator.getrandbits(64)
    paths = _chunked_walk_ids(indptr, indices, start_ids, length, base_seed)
    return _paths_to_labels(graph, paths)


def _paths_to_labels(graph: FrozenDiGraph, paths: np.ndarray) -> List[List[Node]]:
    """Convert an id-path matrix to label paths, truncating at the -1 padding."""
    label_array = np.array(graph.labels(), dtype=object)
    # One fancy-indexing pass over the whole matrix (padding mapped to id 0,
    # sliced away below), then a cheap per-row truncation: valid ids form a
    # prefix of each row by construction.
    rows = label_array[np.where(paths >= 0, paths, 0)].tolist()
    lengths = (paths >= 0).sum(axis=1).tolist()
    full = paths.shape[1]
    return [
        row if count == full else row[:count] for row, count in zip(rows, lengths)
    ]


def random_walk_on_san(
    san,
    start: Node,
    length: int,
    degree_cap: Optional[int] = None,
    rng: RngLike = None,
) -> List[Node]:
    """Convenience wrapper: random walk on a SAN's undirected social projection.

    Accepts either SAN backend; the single walk goes through
    :func:`random_walks` and its batched kernel.
    """
    return random_walks(san.social, [start], length, degree_cap=degree_cap, rng=rng)[0]


def stationary_degree_distribution(adjacency: Dict[Node, Sequence[Node]]) -> Dict[Node, float]:
    """Stationary distribution of the simple random walk (proportional to degree)."""
    total = sum(len(neighbors) for neighbors in adjacency.values())
    if total == 0:
        size = len(adjacency)
        return {node: 1.0 / size for node in adjacency} if size else {}
    return {node: len(neighbors) / total for node, neighbors in adjacency.items()}

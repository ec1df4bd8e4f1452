"""Random walks on the social layer of a SAN.

Both application benchmarks (SybilLimit random routes and Drac-style
anonymous-communication path selection) are built on random walks over the
undirected projection of the social graph, optionally with a degree cap as the
paper imposes (bound of 100).

:func:`capped_undirected_csr` slices each row of the frozen graph's
undirected CSR down to the cap, and :func:`batched_walk_ids` advances every
walk together, one vectorized step per hop over that CSR, drawing from a
numpy ``Generator``.  The Sybil and anonymity kernels call exactly this pair.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.frozen import FrozenDiGraph
from ..utils.rng import RngLike, ensure_rng


def capped_undirected_csr(
    graph: FrozenDiGraph, degree_cap: Optional[int] = None, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-capped undirected CSR of a frozen graph.

    SybilLimit bounds the effective node degree: nodes within the cap keep
    their CSR row as-is, and rows over the cap retain a uniform sample of
    exactly ``degree_cap`` neighbors, in row order.  The cap is applied per
    endpoint, so the result may be asymmetric (as in the deployed protocol,
    where each node selects its own edges).
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

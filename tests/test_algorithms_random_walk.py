"""Tests for the batched random walks and the degree-capped CSR."""

import numpy as np

from repro.algorithms.random_walk import batched_walk_ids, capped_undirected_csr


def test_capped_adjacency_respects_cap(clique_san):
    graph = clique_san.freeze().social
    indptr, _ = capped_undirected_csr(graph, degree_cap=3, rng=1)
    assert (np.diff(indptr) == 3).all()
    uncapped, _ = capped_undirected_csr(graph, degree_cap=None)
    assert (np.diff(uncapped) == 5).all()


def test_random_walk_length_and_adjacency(clique_san):
    indptr, indices = capped_undirected_csr(clique_san.freeze().social)
    paths = batched_walk_ids(
        indptr, indices, np.zeros(4, dtype=np.int64), 10, np.random.default_rng(2)
    )
    assert paths.shape == (4, 11)
    assert (paths[:, 0] == 0).all() and (paths >= 0).all()
    for path in paths.tolist():
        for previous, current in zip(path, path[1:]):
            assert current in indices[indptr[previous] : indptr[previous + 1]]


def test_random_walk_stops_at_dead_end():
    # One directed edge 0 -> 1 as a CSR: node 1 has no neighbors.
    indptr, indices = np.array([0, 1, 1]), np.array([1])
    paths = batched_walk_ids(
        indptr, indices, np.array([0]), 5, np.random.default_rng(3)
    )
    assert paths.tolist() == [[0, 1, -1, -1, -1, -1]]

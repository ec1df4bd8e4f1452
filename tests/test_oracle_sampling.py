"""Oracles for the sampling code: capped rows, walks, distance samples.

Each draws at random, so each is checked exactly where it is deterministic
and in distribution elsewhere (empirical shares within five standard errors
of the exact ones).  ``U`` is the loop-free undirected projection of the
social links and ``D`` the social digraph, in networkx.

* ``capped_undirected_csr`` — uncapped (or capped at or above every
  degree), each user's row is its ``U`` neighbours in user order; capped
  at ``d``, a longer row keeps exactly ``d`` of them, in order, each
  neighbour kept with probability ``d / degree``.
* ``batched_walk_ids`` over that CSR (the walks of the Sybil and anonymity
  kernels) — each walk starts at its start, steps along ``U``, and stops
  only at an isolated start; the position after ``t`` steps is distributed
  as row ``s`` of ``P^t``, ``P`` the walk's transition matrix.
* ``sample_distance_distribution`` — with ``num_sources >= n`` it is the
  exact histogram of ``nx.all_pairs_shortest_path_length`` over distinct
  pairs, honouring ``max_depth``; with ``k < n`` sources its mean is ``k / n``
  of that histogram.

The random SANs and edge cases of ``tests/san_cases.py`` are swept, each
given mutable, frozen and mmap-backed.
"""

import math
from collections import Counter

import numpy as np
import pytest
from san_cases import all_cases, random_san, spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.algorithms.random_walk import (  # noqa: E402
    batched_walk_ids,
    capped_undirected_csr,
)
from repro.algorithms.traversal import sample_distance_distribution  # noqa: E402
from repro.graph import san_from_edge_lists  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = ("sample_distance_distribution",)

CASES = all_cases()
IDS = [name for name, _ in CASES]
#: Empirical shares must land within this many standard errors.
Z = 5.0


def _backends(san):
    frozen = san.freeze()
    return {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}


def _undirected(san):
    graph = nx.Graph()
    graph.add_nodes_from(san.social_nodes())
    graph.add_edges_from((u, v) for u, v in san.social_edges() if u != v)
    return graph


def _assert_share(hits, trials, probability, context):
    error = math.sqrt(max(probability * (1 - probability), 1e-12) / trials)
    assert abs(hits / trials - probability) <= Z * error + 1e-12, (context, hits, trials)


def star(leaves):
    return san_from_edge_lists([(0, leaf) for leaf in range(1, leaves + 1)])


def capped_rows(graph, cap, seed):
    """``{user: kept neighbours}`` of a SAN's capped undirected CSR, as labels."""
    social = graph.freeze().social
    labels = social.labels()
    indptr, indices = capped_undirected_csr(social, cap, rng=seed)
    return {
        user: [labels[j] for j in indices[indptr[i] : indptr[i + 1]].tolist()]
        for i, user in enumerate(labels)
    }


def walks(graph, starts, length, seed, cap=None):
    """Label paths of walks from ``starts`` over the capped undirected CSR.

    A walk that stops at a dead end is cut at its first -1.
    """
    social = graph.freeze().social
    labels = social.labels()
    indptr, indices = capped_undirected_csr(social, cap, rng=seed)
    start_ids = np.array([social.index_of(start) for start in starts], dtype=np.int64)
    paths = batched_walk_ids(indptr, indices, start_ids, length, np.random.default_rng(seed))
    return [[labels[i] for i in row if i >= 0] for row in paths.tolist()]


# ----------------------------------------------------------------------
# capped_undirected_csr
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_capped_adjacency_keeps_ordered_neighbour_subsets(name, san):
    undirected = _undirected(san)
    users = list(san.social_nodes())
    full = {u: [v for v in users if undirected.has_edge(u, v)] for u in users}
    widest = max((len(row) for row in full.values()), default=0)
    for backend, graph in _backends(san).items():
        for cap in (None, widest, widest + 3):
            assert capped_rows(graph, cap, seed=1) == full, backend
        for cap in (0, 1, 3):
            capped = capped_rows(graph, cap, seed=2)
            assert list(capped) == users, backend
            for user, kept in capped.items():
                row = full[user]
                assert len(kept) == min(cap, len(row)), (backend, user)
                assert kept == [v for v in row if v in set(kept)], (backend, user)


def test_capped_adjacency_keeps_each_neighbour_with_the_cap_share():
    leaves, cap, trials = 10, 3, 2000
    for backend, graph in _backends(star(leaves)).items():
        kept = Counter()
        for seed in range(trials):
            kept.update(capped_rows(graph, cap, seed=seed)[0])
        for leaf in range(1, leaves + 1):
            _assert_share(kept[leaf], trials, cap / leaves, (backend, leaf))


# ----------------------------------------------------------------------
# batched_walk_ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_walks_follow_the_projection(name, san):
    undirected = _undirected(san)
    starts = list(san.social_nodes()) * 2
    for backend, graph in _backends(san).items():
        paths = walks(graph, starts, 6, seed=4)
        assert len(paths) == len(starts), backend
        for start, walk in zip(starts, paths):
            assert walk[0] == start, backend
            assert len(walk) == (7 if undirected.degree(start) else 1), (backend, start)
            for here, there in zip(walk, walk[1:]):
                assert undirected.has_edge(here, there), (backend, here, there)


def test_walk_positions_follow_the_transition_matrix():
    san = random_san(101)
    undirected = _undirected(san)
    users = list(san.social_nodes())
    index = {u: i for i, u in enumerate(users)}
    transition = nx.to_numpy_array(undirected, nodelist=users)
    transition /= np.maximum(transition.sum(axis=1, keepdims=True), 1)
    start = max(users, key=undirected.degree)
    walks_per_start, steps = 20_000, 8
    for backend, graph in _backends(san).items():
        paths = walks(graph, [start] * walks_per_start, steps, seed=9)
        for step in (1, 3, steps):
            exact = np.linalg.matrix_power(transition, step)[index[start]]
            seen = Counter(walk[step] for walk in paths)
            for user, probability in zip(users, exact):
                _assert_share(seen[user], walks_per_start, probability, (backend, step, user))


def test_capped_walks_leave_a_hub_through_at_most_cap_neighbours():
    for backend, graph in _backends(star(10)).items():
        paths = walks(graph, [0] * 500, 1, seed=6, cap=3)
        assert len({walk[1] for walk in paths}) == 3, backend


# ----------------------------------------------------------------------
# sample_distance_distribution
# ----------------------------------------------------------------------
def exact_histogram(san, max_depth=None):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(san.social_nodes())
    digraph.add_edges_from(san.social_edges())
    histogram = Counter()
    for source, lengths in nx.all_pairs_shortest_path_length(digraph, cutoff=max_depth):
        histogram.update(d for target, d in lengths.items() if target != source)
    return dict(sorted(histogram.items()))


@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_all_sources_give_the_exact_histogram(name, san):
    n = san.number_of_social_nodes()
    for max_depth in (None, 1, 2):
        expected = exact_histogram(san, max_depth)
        for backend, graph in _backends(san).items():
            for num_sources in (n, n + 4):
                histogram = sample_distance_distribution(
                    graph.social, num_sources=num_sources, rng=1, max_depth=max_depth
                )
                assert histogram == expected, (backend, max_depth, num_sources)


def test_sampled_sources_average_to_a_share_of_the_exact_histogram():
    san = random_san(303, num_social=25, num_edges=50)
    n, k, trials = 25, 5, 400
    expected = exact_histogram(san)
    for backend, graph in _backends(san).items():
        samples = [
            sample_distance_distribution(graph.social, num_sources=k, rng=seed)
            for seed in range(trials)
        ]
        for distance, pairs in expected.items():
            counts = np.array([sample.get(distance, 0) for sample in samples], dtype=float)
            error = counts.std(ddof=1) / math.sqrt(trials)
            assert abs(counts.mean() - pairs * k / n) <= Z * error + 1e-9, (backend, distance)

"""Property-based tests for algorithms and metric invariants."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    approximate_average_clustering,
    average_social_clustering_coefficient,
    bfs_distances,
    cardinality_of_register_matrix,
    effective_diameter_from_histogram,
    register_matrix_for_items,
    weakly_connected_components,
)
from repro.graph import SAN
from repro.metrics import social_assortativity, social_knn
from repro.utils.stats import percentile


edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    min_size=1,
    max_size=80,
)


def _san_from(edges):
    san = SAN()
    for source, target in edges:
        if source != target:
            san.add_social_edge(source, target)
        else:
            san.add_social_node(source)
    return san


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_bfs_distances_triangle_inequality_over_edges(edges):
    san = _san_from(edges)
    nodes = list(san.social_nodes())
    source = nodes[0]
    distances = bfs_distances(san.social, source)
    for u, v in san.social_edges():
        if u in distances:
            assert distances.get(v, float("inf")) <= distances[u] + 1


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_wcc_partitions_nodes(edges):
    san = _san_from(edges)
    components = weakly_connected_components(san.social)
    all_nodes = [node for component in components for node in component]
    assert len(all_nodes) == san.number_of_social_nodes()
    assert len(set(all_nodes)) == len(all_nodes)


@given(edge_lists)
@settings(max_examples=30, deadline=None)
def test_clustering_bounds_and_sampled_estimate(edges):
    san = _san_from(edges)
    exact = average_social_clustering_coefficient(san)
    assert 0.0 <= exact <= 1.0
    approx = approximate_average_clustering(
        san, num_samples=3000, rng=random.Random(0)
    )
    assert abs(approx - exact) < 0.15


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_assortativity_and_knn_bounds(edges):
    san = _san_from(edges)
    assert -1.0 <= social_assortativity(san) <= 1.0
    for degree, value in social_knn(san):
        assert degree >= 1
        assert value >= 0


@given(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_hyperloglog_estimate_tracks_distinct_count(items):
    registers = np.maximum.reduce(register_matrix_for_items(items, 11), axis=0)
    estimate = cardinality_of_register_matrix(registers[np.newaxis, :])[0]
    distinct = len(set(items))
    assert abs(estimate - distinct) <= max(5, 0.15 * distinct)


@given(st.dictionaries(st.integers(1, 15), st.integers(1, 100), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_effective_diameter_within_histogram_support(histogram):
    diameter = effective_diameter_from_histogram(histogram, quantile=0.9)
    assert 0.0 <= diameter <= max(histogram)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_percentile_spans_min_to_max(values):
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)

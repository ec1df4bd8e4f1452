"""Tests for BFS traversal, distance distributions, and attribute distances."""


from repro.algorithms import (
    attribute_distance,
    bfs_distances,
    effective_diameter_from_histogram,
    sample_attribute_distance_distribution,
    sample_distance_distribution,
)
from repro.algorithms.traversal import frontier_bfs_levels
from repro.graph import san_from_edge_lists


def test_bfs_distances_on_ring(ring_san):
    distances = bfs_distances(ring_san.social, 0)
    assert distances[0] == 0
    assert distances[1] == 1
    assert distances[9] == 9  # directed ring: the "previous" node is 9 hops away


def test_bfs_distances_max_depth(ring_san):
    distances = bfs_distances(ring_san.social, 0, max_depth=3)
    assert max(distances.values()) == 3
    assert 4 not in distances


def test_undirected_bfs_distances(ring_san):
    # The crawl's sweep over the undirected CSR (ring ids are the labels).
    distances = frontier_bfs_levels(*ring_san.freeze().social.undirected_csr(), 0)
    assert distances[9] == 1
    assert distances[5] == 5


def test_shortest_path_length(figure1_san):
    assert bfs_distances(figure1_san.social, 1)[2] == 1
    assert bfs_distances(figure1_san.social, 1)[5] == 2  # 1 -> 3 -> 5
    assert bfs_distances(figure1_san.social, 4)[4] == 0
    assert bfs_distances(figure1_san.social, 5)[1] == 4  # 5 -> 6 -> 4 -> 2 -> 1


def test_shortest_path_unreachable():
    san = san_from_edge_lists([(1, 2), (3, 4)])
    assert 4 not in bfs_distances(san.social, 1)


def test_sample_distance_distribution_counts_pairs(ring_san):
    histogram = sample_distance_distribution(ring_san.social, num_sources=10, rng=1)
    # From every source, the other 9 nodes are at distances 1..9.
    assert sum(histogram.values()) == 10 * 9
    assert set(histogram) == set(range(1, 10))


def test_effective_diameter_from_histogram_interpolates():
    histogram = {1: 50, 2: 40, 3: 10}
    diameter = effective_diameter_from_histogram(histogram, quantile=0.9)
    assert 2.0 <= diameter <= 3.0
    assert effective_diameter_from_histogram({}, quantile=0.9) == 0.0


def test_effective_diameter_all_at_one():
    assert effective_diameter_from_histogram({1: 10}) <= 1.0


def test_attribute_distance_shared_member_is_one(figure1_san):
    # employer:Google members {1,2}; school:UC Berkeley members {2,3} share user 2.
    assert attribute_distance(figure1_san, "employer:Google", "school:UC Berkeley") == 1


def test_attribute_distance_uses_social_path(figure1_san):
    # major:Computer Science members {4,5}; city:San Francisco members {5,6} share 5.
    assert attribute_distance(figure1_san, "major:Computer Science", "city:San Francisco") == 1
    # employer:Google {1,2} to city:SF {5,6}: shortest social distance 1->3->5 = 2, plus 1.
    distance = attribute_distance(figure1_san, "employer:Google", "city:San Francisco")
    assert distance == 3


def test_attribute_distance_unreachable():
    san = san_from_edge_lists(
        [(1, 2), (3, 4)],
        [(1, "city", "A"), (4, "city", "B")],
    )
    assert attribute_distance(san, "city:A", "city:B") is None


def test_sample_attribute_distance_distribution(figure1_san):
    histogram = sample_attribute_distance_distribution(figure1_san, num_pairs=30, rng=3)
    assert histogram
    assert all(distance >= 1 for distance in histogram)

"""Tests for social and attribute effective diameters."""

from repro.algorithms import effective_diameter_from_histogram
from repro.metrics import (
    attribute_effective_diameter,
    distance_distribution,
    distance_mode,
    social_effective_diameter,
)


def test_social_diameter_methods_agree_on_ring(ring_san):
    """HyperANF against the sampled-BFS histogram of the same distances."""
    hyperanf = social_effective_diameter(ring_san, precision=9)
    sampled = effective_diameter_from_histogram(
        distance_distribution(ring_san, num_sources=10, rng=1)
    )
    assert abs(hyperanf - sampled) < 1.5
    assert sampled > 5  # 90th percentile of distances 1..9 is ~8


def test_social_diameter_clique(clique_san):
    assert social_effective_diameter(clique_san) <= 1.0


def test_attribute_effective_diameter(figure1_san):
    diameter = attribute_effective_diameter(figure1_san, num_pairs=50, rng=2)
    assert diameter >= 1.0


def test_distance_distribution_and_mode(ring_san):
    histogram = distance_distribution(ring_san, num_sources=10, rng=3)
    assert set(histogram) == set(range(1, 10))
    # Uniform histogram: mode is the first maximal key.
    assert distance_mode(histogram) in range(1, 10)
    assert distance_mode({}) is None
    assert distance_mode({3: 5, 4: 9}) == 4

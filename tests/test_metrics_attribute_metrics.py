"""Tests for attribute-structure metrics."""

import pytest

from repro.algorithms import approximate_average_clustering
from repro.metrics import (
    attribute_clustering_by_type,
    attribute_clustering_distribution,
    exact_attribute_clustering_coefficient,
    social_clustering_distribution,
    top_attribute_nodes,
)


def test_attribute_clustering_by_type(figure1_san):
    by_type = attribute_clustering_by_type(figure1_san)
    assert set(by_type) == {"employer", "school", "major", "city"}
    # Google employees (1, 2) are reciprocally linked; CS majors (4, 5) are not.
    assert by_type["employer"] > by_type["major"]
    assert by_type["employer"] == pytest.approx(1.0)


def test_clustering_distributions(figure1_san):
    attribute_points = attribute_clustering_distribution(figure1_san)
    social_points = social_clustering_distribution(figure1_san)
    assert all(degree >= 2 for degree, _ in attribute_points)
    assert all(0.0 <= value <= 1.0 for _, value in attribute_points)
    assert all(0.0 <= value <= 1.0 for _, value in social_points)


def test_exact_and_approximate_attribute_clustering(figure1_san):
    exact = exact_attribute_clustering_coefficient(figure1_san)
    approx = approximate_average_clustering(
        figure1_san,
        population=list(figure1_san.attribute_nodes()),
        num_samples=20000,
        rng=1,
    )
    assert approx == pytest.approx(exact, abs=0.05)


def test_top_attribute_nodes(figure1_san):
    top = top_attribute_nodes(figure1_san, count=2)
    assert len(top) == 2
    assert all(count == 2 for _, count in top)
    top_employers = top_attribute_nodes(figure1_san, attr_type="employer", count=5)
    assert top_employers == [("employer:Google", 2)]


def test_attribute_metrics_empty():
    from repro.graph import SAN

    assert attribute_clustering_by_type(SAN()) == {}
    assert top_attribute_nodes(SAN()) == []

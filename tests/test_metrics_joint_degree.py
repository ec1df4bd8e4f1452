"""Tests for knn curves and assortativity coefficients."""

import pytest

from repro.graph import san_from_edge_lists
from repro.metrics import (
    attribute_assortativity,
    attribute_knn,
    social_assortativity,
    social_knn,
)


def test_social_knn_clique(clique_san):
    points = social_knn(clique_san)
    # Every node has out-degree 5 and its neighbors all have in-degree 5.
    assert points == [(5, pytest.approx(5.0))]


def test_social_knn_star():
    # Star: hub 0 -> leaves; leaves have in-degree 1, hub has in-degree 0.
    san = san_from_edge_lists([(0, i) for i in range(1, 6)] + [(i, 0) for i in range(1, 6)])
    points = dict(social_knn(san))
    # Hub out-degree 5 connects to leaves with in-degree 1.
    assert points[5] == pytest.approx(1.0)
    # Leaves out-degree 1 connect to the hub with in-degree 5.
    assert points[1] == pytest.approx(5.0)


def test_social_assortativity_range(figure1_san, clique_san):
    value = social_assortativity(figure1_san)
    assert -1.0 <= value <= 1.0
    # Clique is perfectly regular -> correlation degenerate -> 0.
    assert social_assortativity(clique_san) == 0.0


def test_social_assortativity_star_is_negative():
    san = san_from_edge_lists([(0, i) for i in range(1, 8)] + [(i, 0) for i in range(1, 8)])
    assert social_assortativity(san) < 0


def test_attribute_knn(figure1_san):
    points = dict(attribute_knn(figure1_san))
    # Every attribute node has 2 members in the fixture.
    assert set(points) == {2}
    assert points[2] > 0


def test_attribute_assortativity_range(figure1_san):
    value = attribute_assortativity(figure1_san)
    assert -1.0 <= value <= 1.0


def test_assortativity_empty():
    from repro.graph import SAN

    assert social_assortativity(SAN()) == 0.0
    assert attribute_assortativity(SAN()) == 0.0
    assert social_knn(SAN()) == []
    assert attribute_knn(SAN()) == []

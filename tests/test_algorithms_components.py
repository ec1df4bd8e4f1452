"""Tests for connected-component algorithms."""

from repro.algorithms import weakly_connected_components
from repro.graph import SAN, DiGraph, san_from_edge_lists
from repro.metrics import frozen_san_report


def test_wcc_single_component(ring_san):
    components = weakly_connected_components(ring_san.social)
    assert len(components) == 1
    assert len(components[0]) == 10


def test_wcc_multiple_components():
    graph = DiGraph([(1, 2), (3, 4), (4, 5)])
    components = weakly_connected_components(graph)
    assert len(components) == 2
    assert len(components[0]) == 3  # largest first
    assert components[0] == {3, 4, 5}


def test_wcc_fraction():
    # The `repro report` battery's share of users in the largest component.
    san = san_from_edge_lists([(1, 2), (3, 4), (4, 5)])
    for graph, fraction in ((san, 3 / 5), (SAN(), 0.0)):
        report = frozen_san_report(
            graph, include_diameter=False, clustering_samples=10, rng=1
        )
        assert report["wcc_fraction"] == fraction


def test_wcc_isolated_node():
    graph = DiGraph()
    graph.add_node("solo")
    assert weakly_connected_components(graph) == [{"solo"}]

"""Tests for common-neighbour helpers and closure classification."""

import pytest

from repro.algorithms import (
    ClosureBreakdown,
    classify_closures,
    count_directed_triangles,
    is_focal_closure,
    is_triadic_closure,
    two_hop_social_neighbors,
)
from repro.graph import san_from_edge_lists


def test_two_hop_social_neighbors(figure1_san):
    # Node 4 -> 2; 2's neighbors are {1, 3, 4}; exclude 4 itself and its direct neighbors.
    hops = two_hop_social_neighbors(figure1_san, 4)
    assert 1 in hops and 3 in hops
    assert 4 not in hops
    assert 2 not in hops  # direct neighbor


def test_two_hop_neighbors_isolated_node():
    san = san_from_edge_lists([(1, 2)])
    san.add_social_node(99)
    assert two_hop_social_neighbors(san, 99) == set()


def test_is_triadic_and_focal_closure(figure1_san):
    # 1 and 4 share social neighbor 2 but no attributes.
    assert is_triadic_closure(figure1_san, 1, 4)
    assert not is_focal_closure(figure1_san, 1, 4)
    # 4 and 5 share major:Computer Science and the social neighbor 6.
    assert is_focal_closure(figure1_san, 4, 5)
    assert is_triadic_closure(figure1_san, 4, 5)
    # 1 and 6 share neither social neighbors nor attributes.
    assert not is_triadic_closure(figure1_san, 1, 6)
    assert not is_focal_closure(figure1_san, 1, 6)


def test_classify_closures_counts(figure1_san):
    edges = [(1, 4), (4, 5), (1, 6)]
    breakdown = classify_closures(figure1_san, edges)
    assert breakdown.total == 3
    assert breakdown.triadic == 2   # (1,4) and (4,5)
    assert breakdown.focal == 1     # (4,5)
    assert breakdown.both == 1      # (4,5)
    assert breakdown.neither == 1   # (1,6)
    assert breakdown.triadic_fraction == pytest.approx(2 / 3)


def test_classify_closures_skips_unknown_nodes(figure1_san):
    breakdown = classify_closures(figure1_san, [(1, 999)])
    assert breakdown.total == 0
    assert breakdown.triadic_fraction == 0.0


def test_closure_breakdown_empty():
    breakdown = ClosureBreakdown()
    assert breakdown.focal_fraction == 0.0
    assert breakdown.both_fraction == 0.0


def test_count_directed_triangles(clique_san, ring_san):
    # K6 has C(6,3) = 20 triangles in the undirected projection.
    assert count_directed_triangles(clique_san) == 20
    assert count_directed_triangles(ring_san) == 0

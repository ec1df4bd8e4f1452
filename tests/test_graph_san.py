"""Unit tests for the SAN container."""

import pytest

from repro.graph import SAN
from repro.graph.errors import InvalidNodeKindError, NodeNotFoundError


def test_add_social_edge_and_neighbors(figure1_san):
    san = figure1_san
    assert san.has_social_edge(1, 2)
    assert san.has_social_edge(2, 1)
    assert not san.has_social_edge(4, 5)
    assert 2 in san.social.successors(1)
    assert 4 in san.social.predecessors(2)
    assert san.social_neighbors(1) == {2, 3}


def test_attribute_neighbors_and_common_attributes(figure1_san):
    san = figure1_san
    assert san.attribute_neighbors(2) == {"employer:Google", "school:UC Berkeley"}
    assert san.common_attributes(1, 2) == {"employer:Google"}
    assert san.common_attributes(1, 4) == set()


def test_social_neighbors_of_attribute_node(figure1_san):
    members = figure1_san.social_neighbors("employer:Google")
    assert members == {1, 2}


def test_social_neighbors_missing_node_raises(figure1_san):
    with pytest.raises(NodeNotFoundError):
        figure1_san.social_neighbors("nonexistent")


def test_degrees(figure1_san):
    san = figure1_san
    assert san.social_out_degree(1) == 2
    assert san.social_in_degree(2) == 3
    assert san.attribute_degree(2) == 2
    assert san.attributes.members_of("employer:Google") == {1, 2}


def test_counts(figure1_san):
    san = figure1_san
    assert san.number_of_social_nodes() == 6
    assert san.number_of_attribute_nodes() == 4 + 0 + 0  # Google, Berkeley, CS, SF
    assert san.number_of_social_edges() == 10
    assert san.number_of_attribute_edges() == 8


def test_node_kind_collision_raises():
    san = SAN()
    san.add_social_node("x")
    with pytest.raises(InvalidNodeKindError):
        san.add_attribute_node("x")
    san.add_attribute_node("attr")
    with pytest.raises(InvalidNodeKindError):
        san.add_social_node("attr")


def test_densities(figure1_san):
    social_density, attribute_density = figure1_san.densities()
    assert social_density == pytest.approx(10 / 6)
    assert attribute_density == pytest.approx(8 / 4)


def test_densities_empty():
    assert SAN().densities() == (0.0, 0.0)


def test_common_social_neighbors(figure1_san):
    # 1 and 4 both neighbor 2 (4 -> 2 and 1 <-> 2).
    assert 2 in figure1_san.common_social_neighbors(1, 4)


def test_copy_independent(figure1_san):
    clone = figure1_san.copy()
    clone.add_social_edge(1, 6)
    assert not figure1_san.has_social_edge(1, 6)
    clone.add_attribute_edge(6, "employer:Google")
    assert figure1_san.attributes.members_of("employer:Google") == {1, 2}


def test_summary_keys(figure1_san):
    summary = figure1_san.summary()
    assert summary["social_nodes"] == 6
    assert summary["attribute_nodes"] == 4
    assert summary["social_edges"] == 10
    assert summary["attribute_edges"] == 8
    assert summary["social_density"] == pytest.approx(10 / 6)


def test_attribute_type_lookup(figure1_san):
    assert figure1_san.attribute_type("city:San Francisco") == "city"
    assert figure1_san.attribute_info("major:Computer Science").value == "Computer Science"


def test_is_social_and_attribute_node(figure1_san):
    assert figure1_san.is_social_node(3)
    assert not figure1_san.is_social_node("employer:Google")
    assert figure1_san.is_attribute_node("employer:Google")
    assert not figure1_san.is_attribute_node(3)

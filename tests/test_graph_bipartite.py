"""Unit tests for the bipartite social-attribute layer."""

import pytest

from repro.graph import BipartiteAttributeGraph
from repro.graph.errors import EdgeNotFoundError, NodeNotFoundError


def test_add_link_creates_endpoints():
    graph = BipartiteAttributeGraph()
    assert graph.add_link(1, "employer:Google") is True
    assert list(graph.social_nodes()) == [1]
    assert graph.has_attribute_node("employer:Google")
    assert graph.number_of_links() == 1


def test_add_link_idempotent():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    assert graph.add_link(1, "a") is False
    assert graph.number_of_links() == 1


def test_attribute_info_defaults_and_explicit_type():
    graph = BipartiteAttributeGraph()
    graph.add_attribute_node("employer:Google", attr_type="employer", value="Google")
    graph.add_link(1, "employer:Google")
    info = graph.attribute_info("employer:Google")
    assert info.attr_type == "employer"
    assert info.value == "Google"
    graph.add_link(2, "mystery")
    assert graph.attribute_type("mystery") == "generic"


def test_attribute_info_missing_raises():
    graph = BipartiteAttributeGraph()
    with pytest.raises(NodeNotFoundError):
        graph.attribute_info("nope")


def test_degrees():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    graph.add_link(1, "b")
    graph.add_link(2, "a")
    assert graph.attribute_degree(1) == 2
    assert graph.attribute_degree(2) == 1
    assert graph.members_of("a") == {1, 2}
    assert graph.members_of("b") == {1}
    assert graph.attribute_degree("unknown-user") == 0


def test_common_attributes():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    graph.add_link(1, "b")
    graph.add_link(2, "b")
    graph.add_link(2, "c")
    assert graph.common_attributes(1, 2) == {"b"}
    assert graph.common_attributes(1, 1) == {"a", "b"}


def test_remove_link():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    graph.remove_link(1, "a")
    assert graph.number_of_links() == 0
    assert not graph.has_link(1, "a")
    with pytest.raises(EdgeNotFoundError):
        graph.remove_link(1, "a")


def test_links_iteration_and_counts():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    graph.add_link(2, "b")
    links = set(graph.links())
    assert links == {(1, "a"), (2, "b")}
    assert graph.number_of_social_nodes() == 2
    assert graph.number_of_attribute_nodes() == 2


def test_copy_is_independent():
    graph = BipartiteAttributeGraph()
    graph.add_link(1, "a")
    clone = graph.copy()
    clone.add_link(2, "a")
    assert graph.number_of_links() == 1
    assert clone.number_of_links() == 2
    assert clone.attribute_info("a") == graph.attribute_info("a")


def test_members_of_missing_attribute_raises():
    graph = BipartiteAttributeGraph()
    with pytest.raises(NodeNotFoundError):
        graph.members_of("ghost")

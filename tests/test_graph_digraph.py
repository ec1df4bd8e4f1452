"""Unit tests for the directed-graph substrate."""

import pytest

from repro.graph import DiGraph
from repro.graph.errors import EdgeNotFoundError, NodeNotFoundError


def test_empty_graph_has_no_nodes_or_edges():
    graph = DiGraph()
    assert graph.number_of_nodes() == 0
    assert graph.number_of_edges() == 0
    assert list(graph.nodes()) == []
    assert list(graph.edges()) == []


def test_add_edge_creates_both_endpoints():
    graph = DiGraph()
    assert graph.add_edge("a", "b") is True
    assert graph.has_node("a") and graph.has_node("b")
    assert graph.has_edge("a", "b")
    assert not graph.has_edge("b", "a")


def test_add_edge_is_idempotent():
    graph = DiGraph()
    assert graph.add_edge(1, 2) is True
    assert graph.add_edge(1, 2) is False
    assert graph.number_of_edges() == 1


def test_constructor_accepts_edge_iterable():
    graph = DiGraph([(1, 2), (2, 3), (3, 1)])
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 3


def test_in_and_out_degree():
    graph = DiGraph([(1, 2), (1, 3), (3, 2)])
    assert graph.out_degree(1) == 2
    assert graph.in_degree(1) == 0
    assert graph.in_degree(2) == 2
    assert graph.out_degree(2) == 0


def test_neighbors_union_excludes_self():
    graph = DiGraph([(1, 2), (2, 1), (1, 1)])
    assert graph.neighbors(1) == {2}


def test_successors_of_missing_node_raises():
    graph = DiGraph()
    with pytest.raises(NodeNotFoundError):
        graph.successors("missing")
    with pytest.raises(NodeNotFoundError):
        graph.predecessors("missing")


def test_remove_edge():
    graph = DiGraph([(1, 2), (2, 3)])
    graph.remove_edge(1, 2)
    assert not graph.has_edge(1, 2)
    assert graph.number_of_edges() == 1
    with pytest.raises(EdgeNotFoundError):
        graph.remove_edge(1, 2)


def test_copy_is_independent():
    graph = DiGraph([(1, 2)])
    clone = graph.copy()
    clone.add_edge(2, 3)
    assert graph.number_of_edges() == 1
    assert clone.number_of_edges() == 2


def test_edge_count_tracks_additions_and_removals():
    graph = DiGraph()
    for i in range(5):
        graph.add_edge(i, i + 1)
    assert graph.number_of_edges() == 5
    graph.remove_edge(0, 1)
    assert graph.number_of_edges() == 4
    assert len(list(graph.edges())) == 4


def test_len_and_contains():
    graph = DiGraph([(1, 2)])
    assert len(graph) == 2
    assert 1 in graph
    assert 5 not in graph

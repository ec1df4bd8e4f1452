"""Unit tests for the frozen CSR-backed graph backends."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph import (
    DiGraph,
    DiGraphView,
    FrozenGraphError,
    FrozenSAN,
    NodeNotFoundError,
    SANView,
    load_san_json,
    load_san_tsv,
    san_from_edge_lists,
    save_san_json,
    save_san_tsv,
)


def random_digraph(seed: int, nodes: int = 40, edges: int = 160) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph()
    for node in range(nodes):
        graph.add_node(node)
    for _ in range(edges):
        graph.add_edge(rng.randrange(nodes), rng.randrange(nodes))
    return graph


class TestFrozenDiGraph:
    def test_preserves_counts_and_edges(self):
        graph = random_digraph(1)
        frozen = graph.freeze()
        assert frozen.number_of_nodes() == graph.number_of_nodes()
        assert frozen.number_of_edges() == graph.number_of_edges()
        assert set(frozen.edges()) == set(graph.edges())
        assert list(frozen.nodes()) == list(graph.nodes())

    def test_neighborhoods_match_mutable(self):
        graph = random_digraph(2)
        frozen = graph.freeze()
        for node in graph.nodes():
            assert frozen.successors(node) == graph.successors(node)
            assert frozen.predecessors(node) == graph.predecessors(node)
            assert frozen.neighbors(node) == graph.neighbors(node)
            assert frozen.out_degree(node) == graph.out_degree(node)
            assert frozen.in_degree(node) == graph.in_degree(node)

    def test_has_edge_and_reciprocity(self):
        graph = DiGraph([(1, 2), (2, 1), (2, 3)])
        frozen = graph.freeze()
        assert frozen.has_edge(1, 2) and frozen.has_edge(2, 3)
        assert not frozen.has_edge(3, 2)
        assert not frozen.has_edge(99, 1) and not frozen.has_edge(1, 99)
        assert frozen.has_edge(2, 1)  # the reciprocal pair keeps both directions

    def test_missing_node_raises(self):
        frozen = DiGraph([(1, 2)]).freeze()
        with pytest.raises(NodeNotFoundError):
            frozen.successors(99)
        with pytest.raises(NodeNotFoundError):
            frozen.index_of(99)

    def test_mutation_raises_frozen_error(self):
        frozen = DiGraph([(1, 2)]).freeze()
        with pytest.raises(FrozenGraphError):
            frozen.add_edge(2, 3)
        with pytest.raises(FrozenGraphError):
            frozen.add_node(5)
        with pytest.raises(FrozenGraphError):
            frozen.remove_edge(1, 2)

    def test_freeze_is_snapshot(self):
        graph = DiGraph([(1, 2)])
        frozen = graph.freeze()
        graph.add_edge(2, 3)
        assert frozen.number_of_edges() == 1
        assert not frozen.has_edge(2, 3)

    def test_self_loop_kept_as_an_edge_but_not_a_neighbor(self):
        graph = DiGraph([(1, 1), (1, 2)])
        frozen = graph.freeze()
        assert frozen.has_edge(1, 1)
        assert set(frozen.edges()) == {(1, 1), (1, 2)}
        # ... but excluded from the neighbor view, as in the mutable backend.
        assert frozen.neighbors(1) == graph.neighbors(1) == {2}
        assert frozen.undirected_row(0).tolist() == [1]

    def test_copy_and_freeze_idempotent(self):
        frozen = random_digraph(7).freeze()
        assert frozen.copy() is frozen
        assert frozen.freeze() is frozen

    def test_csr_invariants(self):
        frozen = random_digraph(8).freeze()
        for indptr, indices in (frozen.out_csr(), frozen.in_csr(), frozen.undirected_csr()):
            assert indptr[0] == 0
            assert indptr[-1] == indices.size
            for i in range(len(indptr) - 1):
                row = indices[indptr[i] : indptr[i + 1]]
                assert np.all(np.diff(row) > 0)  # sorted, duplicate-free

    def test_empty_graph(self):
        frozen = DiGraph().freeze()
        assert frozen.number_of_nodes() == 0
        assert frozen.number_of_edges() == 0
        assert list(frozen.edges()) == []
        assert frozen.undirected_degree_array().size == 0


class TestFrozenSAN:
    def test_read_api_matches_mutable(self, figure1_san):
        frozen = figure1_san.freeze()
        assert frozen.summary() == figure1_san.summary()
        assert set(frozen.social_edges()) == set(figure1_san.social_edges())
        assert set(frozen.attribute_edges()) == set(figure1_san.attribute_edges())
        for node in figure1_san.social_nodes():
            assert frozen.social.successors(node) == figure1_san.social.successors(node)
            assert frozen.social.predecessors(node) == figure1_san.social.predecessors(node)
            assert frozen.social_neighbors(node) == figure1_san.social_neighbors(node)
            assert frozen.attribute_neighbors(node) == figure1_san.attribute_neighbors(node)
            assert frozen.attribute_degree(node) == figure1_san.attribute_degree(node)
        for attribute in figure1_san.attribute_nodes():
            assert frozen.social_neighbors(attribute) == figure1_san.social_neighbors(attribute)
            assert frozen.attributes.members_of(attribute) == figure1_san.attributes.members_of(attribute)
            assert frozen.attribute_info(attribute) == figure1_san.attribute_info(attribute)

    def test_common_neighbor_queries(self, figure1_san):
        frozen = figure1_san.freeze()
        nodes = list(figure1_san.social_nodes())
        for first in nodes:
            for second in nodes:
                if first == second:
                    continue
                assert frozen.common_attributes(first, second) == figure1_san.common_attributes(first, second)
                assert frozen.common_social_neighbors(first, second) == figure1_san.common_social_neighbors(first, second)

    def test_mutation_raises(self, figure1_san):
        frozen = figure1_san.freeze()
        with pytest.raises(FrozenGraphError):
            frozen.add_social_edge(10, 11)
        with pytest.raises(FrozenGraphError):
            frozen.add_attribute_edge(1, "city:Z")
        with pytest.raises(FrozenGraphError):
            frozen.attributes.add_link(1, "city:Z")

    def test_attribute_type_queries(self, figure1_san):
        frozen = figure1_san.freeze()
        types = {figure1_san.attribute_type(a) for a in figure1_san.attribute_nodes()}
        assert frozen.attributes.type_names() == sorted(types)
        names = frozen.attributes.type_names()
        for attribute, code in zip(frozen.attribute_nodes(), frozen.attributes.type_codes()):
            assert names[code] == frozen.attribute_type(attribute) == figure1_san.attribute_type(attribute)


class TestProtocols:
    def test_both_backends_satisfy_protocols(self, figure1_san):
        assert isinstance(figure1_san, SANView)
        assert isinstance(figure1_san.freeze(), SANView)
        assert isinstance(figure1_san.social, DiGraphView)
        assert isinstance(figure1_san.freeze().social, DiGraphView)

    def test_non_graph_rejected(self):
        assert not isinstance(object(), SANView)
        assert not isinstance(object(), DiGraphView)


class TestFrozenSerialization:
    def test_tsv_round_trip_frozen(self, figure1_san, tmp_path):
        frozen = figure1_san.freeze()
        social, attrs = tmp_path / "social.tsv", tmp_path / "attrs.tsv"
        save_san_tsv(frozen, social, attrs)
        loaded = load_san_tsv(social, attrs)
        assert isinstance(loaded, FrozenSAN)
        assert loaded.summary() == frozen.summary()
        assert set(loaded.social_edges()) == set(frozen.social_edges())
        assert set(loaded.attribute_edges()) == set(frozen.attribute_edges())

    def test_json_round_trip_frozen(self, figure1_san, tmp_path):
        path = tmp_path / "san.json"
        save_san_json(figure1_san.freeze(), path)
        loaded = load_san_json(path)
        assert isinstance(loaded, FrozenSAN)
        assert loaded.summary() == figure1_san.summary()


def test_frozen_san_from_builder_edge_lists():
    san = san_from_edge_lists(
        [(1, 2), (2, 1)], [(1, "employer", "Google"), (2, "employer", "Google")]
    )
    frozen = san.freeze()
    assert frozen.common_attributes(1, 2) == san.common_attributes(1, 2)
    assert frozen.has_social_edge(1, 2) and frozen.has_social_edge(2, 1)


class TestFromEdgeArrays:
    def _reference(self):
        social_edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]
        attribute_records = [
            (0, "employer", "Google"),
            (1, "employer", "Google"),
            (2, "city", "SF"),
        ]
        return san_from_edge_lists(social_edges, attribute_records)

    def _from_arrays(self):
        from repro.graph.bipartite import AttributeInfo

        src = np.array([0, 1, 1, 2, 3], dtype=np.int64)
        dst = np.array([1, 0, 2, 3, 1], dtype=np.int64)
        attr_labels = ["employer:Google", "city:SF"]
        attr_info = [
            AttributeInfo(attr_type="employer", value="Google"),
            AttributeInfo(attr_type="city", value="SF"),
        ]
        link_social = np.array([0, 1, 2], dtype=np.int64)
        link_attr = np.array([0, 0, 1], dtype=np.int64)
        return FrozenSAN.from_edge_arrays(
            [0, 1, 2, 3], src, dst, attr_labels, attr_info, link_social, link_attr
        )

    def test_matches_frozen_reference(self):
        reference = self._reference().freeze()
        built = self._from_arrays()
        assert built.summary() == reference.summary()
        for source, target in reference.social_edges():
            assert built.has_social_edge(source, target)
        for social, attribute in reference.attribute_edges():
            assert built.has_attribute_edge(social, attribute)
            assert built.attribute_info(attribute) == reference.attribute_info(attribute)
        for node in reference.social_nodes():
            assert built.social_in_degree(node) == reference.social_in_degree(node)
            assert built.social_out_degree(node) == reference.social_out_degree(node)

    def test_rows_are_sorted(self):
        built = self._from_arrays()
        indptr, indices = built.social.out_csr()
        for row in range(len(indptr) - 1):
            segment = indices[indptr[row] : indptr[row + 1]]
            assert np.all(np.diff(segment) >= 0)

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.int64)
        built = FrozenSAN.from_edge_arrays([0, 1], empty, empty, [], [], empty, empty)
        assert built.number_of_social_nodes() == 2
        assert built.number_of_social_edges() == 0
        assert built.number_of_attribute_nodes() == 0

"""Property-based tests (hypothesis) for the graph substrate and core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, SAN
from repro.metrics import global_reciprocity, social_density
from repro.metrics.degrees import social_in_degrees, social_out_degrees


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    max_size=120,
)

attribute_lists = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["employer", "city"]), st.integers(0, 8)),
    max_size=60,
)


def _build_san(edges, attributes):
    san = SAN()
    for source, target in edges:
        if source != target:
            san.add_social_edge(source, target)
    for social, attr_type, value in attributes:
        san.add_social_node(social)
        san.add_attribute_edge(social, f"{attr_type}:{value}", attr_type=attr_type, value=str(value))
    return san


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_digraph_degree_sums_equal_edge_count(edges):
    graph = DiGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    total_out = sum(graph.out_degree(node) for node in graph.nodes())
    total_in = sum(graph.in_degree(node) for node in graph.nodes())
    assert total_out == graph.number_of_edges()
    assert total_in == graph.number_of_edges()
    assert len(list(graph.edges())) == graph.number_of_edges()


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_digraph_add_remove_round_trip(edges):
    graph = DiGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    snapshot = set(graph.edges())
    for source, target in snapshot:
        graph.remove_edge(source, target)
    assert graph.number_of_edges() == 0
    assert all(graph.out_degree(node) == 0 for node in graph.nodes())


@given(edge_lists, attribute_lists)
@settings(max_examples=50, deadline=None)
def test_san_counts_consistent(edges, attributes):
    san = _build_san(edges, attributes)
    assert san.number_of_social_edges() == len(set(san.social_edges()))
    assert san.number_of_attribute_edges() == len(set(san.attribute_edges()))
    out_sum = sum(social_out_degrees(san))
    in_sum = sum(social_in_degrees(san))
    assert out_sum == in_sum == san.number_of_social_edges()
    attr_degree_sum = sum(san.attribute_degree(node) for node in san.social_nodes())
    attr_social_sum = sum(
        len(san.attributes.members_of(node)) for node in san.attribute_nodes()
    )
    assert attr_degree_sum == attr_social_sum == san.number_of_attribute_edges()


@given(edge_lists, attribute_lists)
@settings(max_examples=50, deadline=None)
def test_reciprocity_and_density_bounds(edges, attributes):
    san = _build_san(edges, attributes)
    reciprocity = global_reciprocity(san)
    assert 0.0 <= reciprocity <= 1.0
    assert social_density(san) >= 0.0
    # Reciprocity of a symmetrised SAN is 1.
    symmetric = san.copy()
    for source, target in list(symmetric.social_edges()):
        symmetric.add_social_edge(target, source)
    if symmetric.number_of_social_edges() > 0:
        assert global_reciprocity(symmetric) == 1.0


@given(edge_lists, attribute_lists)
@settings(max_examples=40, deadline=None)
def test_copy_and_freeze_invariants(edges, attributes):
    san = _build_san(edges, attributes)
    clone = san.copy()
    assert set(clone.social_edges()) == set(san.social_edges())
    assert set(clone.attribute_edges()) == set(san.attribute_edges())
    # Freezing keeps both node orders, every edge and every attribute record.
    frozen = san.freeze()
    assert list(frozen.social_nodes()) == list(san.social_nodes())
    assert list(frozen.attribute_nodes()) == list(san.attribute_nodes())
    assert set(frozen.social_edges()) == set(san.social_edges())
    assert set(frozen.attribute_edges()) == set(san.attribute_edges())
    for attribute in san.attribute_nodes():
        assert frozen.attribute_info(attribute) == san.attribute_info(attribute)

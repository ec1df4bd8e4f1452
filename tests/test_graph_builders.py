"""Unit tests for SAN construction helpers."""

from repro.graph import attribute_node_id, complete_seed_san, san_from_edge_lists


def test_attribute_node_id_format():
    assert attribute_node_id("employer", "Google") == "employer:Google"


def test_san_from_edge_lists():
    san = san_from_edge_lists(
        [(1, 2), (2, 3)], [(1, "city", "SF"), (3, "city", "SF")]
    )
    assert san.number_of_social_nodes() == 3
    assert san.number_of_social_edges() == 2
    assert san.attributes.members_of("city:SF") == {1, 3}
    assert san.attribute_type("city:SF") == "city"


def test_complete_seed_san_structure():
    seed = complete_seed_san(num_social=4, num_attributes=3)
    assert seed.number_of_social_nodes() == 4
    assert seed.number_of_attribute_nodes() == 3
    # Complete directed graph: n*(n-1) social links; every node holds every attribute.
    assert seed.number_of_social_edges() == 4 * 3
    assert seed.number_of_attribute_edges() == 4 * 3
    for node in seed.social_nodes():
        assert seed.attribute_degree(node) == 3

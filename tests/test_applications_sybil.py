"""Tests for the SybilLimit-based Sybil-defense experiment."""

from repro.applications import SybilLimitParameters, sybil_identities_vs_compromised


def test_parameters_defaults():
    params = SybilLimitParameters()
    assert params.walk_length == 10
    assert params.degree_bound == 100
    assert params.sybil_bound_per_edge == 10.0
    custom = SybilLimitParameters(sybils_per_attack_edge=25.0)
    assert custom.sybil_bound_per_edge == 25.0


def test_count_attack_edges_clique(clique_san):
    # On the 6-clique any 2 compromised users have 4 honest neighbors each.
    results = sybil_identities_vs_compromised(clique_san, [2, 0], rng=1)
    assert [result.num_attack_edges for result in results] == [8, 0]


def test_sybil_identities_scale_with_compromised_nodes(tiny_final_san):
    results = sybil_identities_vs_compromised(
        tiny_final_san, [0, 10, 40], rng=3
    )
    assert [r.num_compromised for r in results] == [0, 10, 40]
    assert results[0].num_sybil_identities == 0
    assert results[1].num_sybil_identities > 0
    assert results[2].num_sybil_identities > results[1].num_sybil_identities
    # Sybil identities = attack edges * w.
    for result in results:
        assert result.num_sybil_identities == result.num_attack_edges * 10


def test_sybil_compromised_count_capped_at_population(figure1_san):
    results = sybil_identities_vs_compromised(figure1_san, [100], rng=1)
    assert results[0].num_compromised == figure1_san.number_of_social_nodes()


def test_degree_bound_limits_attack_edges(tiny_final_san):
    unlimited = sybil_identities_vs_compromised(
        tiny_final_san, [30], params=SybilLimitParameters(degree_bound=10 ** 6), rng=7
    )[0]
    bounded = sybil_identities_vs_compromised(
        tiny_final_san, [30], params=SybilLimitParameters(degree_bound=5), rng=7
    )[0]
    assert bounded.num_attack_edges <= unlimited.num_attack_edges

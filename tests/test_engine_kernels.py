"""Edge-case tests for the kernels added with the dispatch engine:
traversal, components, HyperANF, random walks, sampling, link prediction, and
the application drivers — on degenerate SANs (empty, single node, isolated
attribute-only component) given mutable or frozen.  The independent oracles
for these operations are in ``tests/test_oracle_*.py``."""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms.components import (
    strongly_connected_components,
    wcc_fraction,
    weakly_connected_components,
)
from repro.algorithms.hyperanf import effective_diameter, neighbourhood_function
from repro.algorithms.random_walk import random_walks
from repro.algorithms.sampling import sample_social_edges
from repro.algorithms.traversal import bfs_distances, sample_distance_distribution
from repro.applications import link_prediction
from repro.applications.anonymity import end_to_end_attack_probability
from repro.applications.link_prediction import (
    adamic_adar_scores,
    common_neighbor_counts,
    pair_features,
    pair_features_batch,
    rank_candidate_pairs,
)
from repro.applications.sybil import sybil_identities_vs_compromised
from repro.graph import SAN, san_from_edge_lists
from san_cases import EDGE_CASES, isolated_attribute_component_san, random_san, single_node_san


@pytest.fixture(params=["scipy"])
def scipy_mode(request):
    """The frozen kernels under test run on scipy, a required dependency.

    One mode only; the parameter keeps these tests' ids stable.
    """
    return request.param


class TestComponentsKernels:
    def test_parity_random(self, scipy_mode):
        for seed in (5, 6):
            san = random_san(seed)
            frozen = san.freeze()
            assert weakly_connected_components(frozen.social) == (
                weakly_connected_components(san.social)
            )
            # Ordering is canonical (-size, earliest member) on every backend.
            assert strongly_connected_components(frozen.social) == (
                strongly_connected_components(san.social)
            )

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory, scipy_mode):
        san = factory()
        frozen = san.freeze()
        assert weakly_connected_components(frozen.social) == (
            weakly_connected_components(san.social)
        )
        assert wcc_fraction(frozen.social) == wcc_fraction(san.social)

    def test_attribute_only_component_not_socially_connected(self, scipy_mode):
        san = isolated_attribute_component_san()
        for graph in (san.social, san.freeze().social):
            components = weakly_connected_components(graph)
            # {1,2,3} social chain; 10 and 11 share only an attribute.
            assert components[0] == {1, 2, 3}
            assert {10} in components and {11} in components

    def test_self_loop_does_not_connect(self, scipy_mode):
        san = san_from_edge_lists([(1, 1), (2, 3)])
        for graph in (san.social, san.freeze().social):
            components = weakly_connected_components(graph)
            assert {1} in components
            assert {2, 3} in components


class TestTraversalKernels:
    def test_bfs_parity_including_max_depth(self):
        for seed in (7, 8):
            san = random_san(seed)
            frozen = san.freeze()
            for source in (0, 13, 59):
                assert bfs_distances(frozen.social, source) == (
                    bfs_distances(san.social, source)
                )
                assert bfs_distances(frozen.social, source, max_depth=2) == (
                    bfs_distances(san.social, source, max_depth=2)
                )

    def test_distance_distribution_parity(self):
        san = random_san(9)
        frozen = san.freeze()
        assert sample_distance_distribution(frozen.social, num_sources=15, rng=3) == (
            sample_distance_distribution(san.social, num_sources=15, rng=3)
        )

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory):
        san = factory()
        frozen = san.freeze()
        assert sample_distance_distribution(frozen.social, num_sources=5, rng=1) == (
            sample_distance_distribution(san.social, num_sources=5, rng=1)
        )
        for node in san.social_nodes():
            assert bfs_distances(frozen.social, node) == bfs_distances(san.social, node)


class TestHyperANFKernels:
    def test_neighbourhood_function_parity(self):
        for seed in (10, 11):
            san = random_san(seed)
            frozen = san.freeze()
            mutable_totals = neighbourhood_function(san.social, precision=6)
            frozen_totals = neighbourhood_function(frozen.social, precision=6)
            assert len(mutable_totals) == len(frozen_totals)
            for left, right in zip(mutable_totals, frozen_totals):
                assert math.isclose(left, right, rel_tol=1e-9)
            assert math.isclose(
                effective_diameter(san.social, precision=6),
                effective_diameter(frozen.social, precision=6),
                rel_tol=1e-9,
            )

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory):
        san = factory()
        frozen = san.freeze()
        mutable_totals = neighbourhood_function(san.social, precision=5)
        frozen_totals = neighbourhood_function(frozen.social, precision=5)
        assert len(mutable_totals) == len(frozen_totals)
        for left, right in zip(mutable_totals, frozen_totals):
            assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)

    def test_self_loop_free_invariant(self):
        """A reciprocal pair reaches each other; a self-loop adds nothing."""
        san = san_from_edge_lists([(1, 2), (2, 1), (3, 3)])
        for graph in (san.social, san.freeze().social):
            totals = neighbourhood_function(graph, precision=6)
            # 3 self-pairs at d=0; {1,2} reach each other at d=1; 3 only itself.
            assert totals[-1] > totals[0]


class TestRandomWalkKernels:
    def test_walks_are_valid_paths(self):
        san = random_san(12)
        frozen = san.freeze()
        starts = list(range(20))
        walks = random_walks(frozen.social, starts, 8, rng=5)
        assert [walk[0] for walk in walks] == starts
        for walk in walks:
            assert len(walk) <= 9
            for previous, current in zip(walk, walk[1:]):
                assert current in frozen.social.neighbors(previous)

    def test_degree_cap_respected(self):
        san = random_san(13, num_social=30, num_edges=500)
        frozen = san.freeze()
        from repro.algorithms.random_walk import capped_undirected_csr

        indptr, indices = capped_undirected_csr(frozen.social, degree_cap=3, rng=1)
        import numpy as np

        assert int(np.diff(indptr).max()) <= 3
        # Capped rows stay sorted and remain a subset of the original row.
        for i in range(len(indptr) - 1):
            row = indices[indptr[i] : indptr[i + 1]]
            assert list(row) == sorted(row)
            assert set(row.tolist()) <= set(frozen.social.undirected_row(i).tolist())

    def test_dead_end_stops_walk(self):
        san = SAN()
        san.add_social_edge(1, 2)  # undirected projection: 1 - 2
        san.add_social_node(3)     # isolated
        frozen = san.freeze()
        walks = random_walks(frozen.social, [3, 1], 5, rng=2)
        assert walks[0] == [3]
        assert len(walks[1]) == 6  # bounces between 1 and 2

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory):
        san = factory()
        frozen = san.freeze()
        starts = list(san.social_nodes())
        walks = random_walks(frozen.social, starts, 4, rng=3)
        assert len(walks) == len(starts)
        for start, walk in zip(starts, walks):
            assert walk[0] == start


class TestSamplingKernels:
    def test_sampled_edges_are_real_edges(self):
        san = random_san(14)
        frozen = san.freeze()
        sampled = sample_social_edges(frozen, 40, rng=4)
        assert len(sampled) == 40
        assert len(set(sampled)) == 40  # without replacement
        for source, target in sampled:
            assert san.has_social_edge(source, target)

    def test_oversampling_returns_every_edge(self):
        san = single_node_san()
        assert sample_social_edges(san.freeze(), 5, rng=1) == []
        pair = san_from_edge_lists([(1, 2)])
        assert sample_social_edges(pair.freeze(), 5, rng=1) == [(1, 2)]


class TestLinkPredictionKernels:
    def test_batch_matches_single_pair(self, scipy_mode):
        for seed in (15, 16):
            san = random_san(seed)
            frozen = san.freeze()
            rng = random.Random(2)
            nodes = list(san.social_nodes())
            pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(120)]
            frozen_features = pair_features_batch(frozen, pairs)
            for (source, target), frozen_row in zip(pairs, frozen_features):
                mutable_row = pair_features(san, source, target)
                assert set(mutable_row) == set(frozen_row)
                for key in mutable_row:
                    assert math.isclose(
                        mutable_row[key], frozen_row[key], rel_tol=1e-9, abs_tol=1e-12
                    )
            assert common_neighbor_counts(frozen, pairs) == (
                common_neighbor_counts(san, pairs)
            )
            for left, right in zip(
                adamic_adar_scores(frozen, pairs), adamic_adar_scores(san, pairs)
            ):
                assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)

    def test_small_batch_uses_row_intersections(self, monkeypatch):
        # Fewer pairs than social nodes on a fresh freeze (no memoized
        # product): the batch is scored by per-pair CSR-row intersections.
        calls = []
        intersect = link_prediction._pairwise_row_intersections

        def counting_intersect(*args, **kwargs):
            calls.append(1)
            return intersect(*args, **kwargs)

        monkeypatch.setattr(
            link_prediction, "_pairwise_row_intersections", counting_intersect
        )
        san = random_san(19)
        frozen = san.freeze()
        nodes = list(san.social_nodes())
        rng = random.Random(3)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(12)]
        assert len(pairs) < frozen.number_of_social_nodes()

        frozen_rows = pair_features_batch(frozen, pairs)
        counts = common_neighbor_counts(frozen, pairs)
        scores = adamic_adar_scores(frozen, pairs)
        for (source, target), row, count, score in zip(pairs, frozen_rows, counts, scores):
            expected = pair_features(san, source, target)
            assert row.keys() == expected.keys()
            for key, value in expected.items():
                assert math.isclose(row[key], value, rel_tol=1e-9, abs_tol=1e-12)
            assert count == expected["common_social_neighbors"]
            assert math.isclose(score, expected["adamic_adar"], rel_tol=1e-9, abs_tol=1e-12)
        assert not frozen.has_derived("common_neighbor_matrix")
        assert not frozen.has_derived("adamic_adar_matrix")
        assert len(calls) == 3

    def test_rank_candidate_pairs_parity(self, scipy_mode):
        san = random_san(17, num_social=40, num_edges=150)
        frozen = san.freeze()
        mutable_top = rank_candidate_pairs(san, top_k=10_000)
        frozen_top = rank_candidate_pairs(frozen, top_k=10_000)
        assert [(s, t, float(score)) for s, t, score in mutable_top] == [
            (s, t, float(score)) for s, t, score in frozen_top
        ]
        mutable_aa = dict_of(rank_candidate_pairs(san, top_k=10_000, metric="adamic_adar"))
        frozen_aa = dict_of(rank_candidate_pairs(frozen, top_k=10_000, metric="adamic_adar"))
        assert mutable_aa.keys() == frozen_aa.keys()
        for key, value in mutable_aa.items():
            assert math.isclose(value, frozen_aa[key], rel_tol=1e-9)

    def test_rank_candidate_pairs_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            rank_candidate_pairs(random_san(1), metric="jaccard")

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory, scipy_mode):
        san = factory()
        frozen = san.freeze()
        assert pair_features_batch(frozen, []) == []
        assert common_neighbor_counts(frozen, []) == []
        assert adamic_adar_scores(frozen, []) == []
        assert rank_candidate_pairs(frozen, top_k=10) == (
            rank_candidate_pairs(san, top_k=10)
        )


def dict_of(ranked):
    return {(source, target): score for source, target, score in ranked}


class TestApplicationKernels:
    def test_sybil_structural_parity(self):
        san = random_san(18)
        frozen = san.freeze()
        results = sybil_identities_vs_compromised(frozen, [0, 5, 25], rng=3)
        assert [r.num_compromised for r in results] == [0, 5, 25]
        assert results[0].num_attack_edges == 0
        assert results[2].num_attack_edges >= results[1].num_attack_edges >= 0
        for result in results:
            assert result.num_sybil_identities == result.num_attack_edges * 10.0

    def test_sybil_full_compromise_has_no_attack_edges(self):
        san = random_san(19, num_social=12, num_edges=40)
        frozen = san.freeze()
        results = sybil_identities_vs_compromised(frozen, [12], rng=1)
        assert results[0].num_attack_edges == 0

    def test_anonymity_probability_bounds(self):
        san = random_san(20)
        frozen = san.freeze()
        none_compromised = end_to_end_attack_probability(frozen, set(), rng=2)
        assert none_compromised == 0.0
        some = end_to_end_attack_probability(frozen, set(range(20)), rng=2)
        assert 0.0 <= some <= 1.0
        everyone = end_to_end_attack_probability(
            frozen, set(san.social_nodes()), rng=2
        )
        assert everyone == 0.0  # no honest initiator left

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory):
        san = factory()
        frozen = san.freeze()
        results = sybil_identities_vs_compromised(frozen, [0, 3], rng=1)
        assert len(results) == 2
        assert end_to_end_attack_probability(frozen, set(), rng=1) >= 0.0

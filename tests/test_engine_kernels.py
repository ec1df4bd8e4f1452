"""Edge-case tests for the kernels added with the dispatch engine:
traversal, components, HyperANF, random walks, link prediction, and
the application drivers — on degenerate SANs (empty, single node, isolated
attribute-only component) given mutable or frozen.  The independent oracles
for these operations are in ``tests/test_oracle_*.py``."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.algorithms.components import weakly_connected_components
from repro.algorithms.hyperanf import effective_diameter, neighbourhood_function
from repro.algorithms.random_walk import batched_walk_ids, capped_undirected_csr
from repro.algorithms.traversal import bfs_distances, sample_distance_distribution
from repro.applications import link_prediction
from repro.applications.anonymity import end_to_end_attack_probability
from repro.applications.link_prediction import pair_features, pair_features_batch
from repro.applications.sybil import sybil_identities_vs_compromised
from repro.graph import SAN, san_from_edge_lists
from san_cases import EDGE_CASES, isolated_attribute_component_san, random_san


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
            # Ordering is canonical (-size, earliest member) on every backend.
            assert weakly_connected_components(frozen.social) == (
                weakly_connected_components(san.social)
            )

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory, scipy_mode):
        san = factory()
        frozen = san.freeze()
        assert weakly_connected_components(frozen.social) == (
            weakly_connected_components(san.social)
        )

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


def walk_ids(graph, starts, length, seed):
    """Walks from the labels ``starts`` over ``graph``'s undirected CSR."""
    indptr, indices = capped_undirected_csr(graph)
    start_ids = np.array([graph.index_of(start) for start in starts], dtype=np.int64)
    paths = batched_walk_ids(
        indptr, indices, start_ids, length, np.random.default_rng(seed)
    )
    return start_ids, paths


class TestRandomWalkKernels:
    def test_walks_are_valid_paths(self):
        frozen = random_san(12).freeze()
        starts, paths = walk_ids(frozen.social, list(range(20)), 8, seed=5)
        assert paths.shape == (20, 9)
        assert (paths[:, 0] == starts).all()
        for path in paths.tolist():
            walk = [node for node in path if node >= 0]
            assert path == walk + [-1] * (len(path) - len(walk))
            for previous, current in zip(walk, walk[1:]):
                assert current in frozen.social.undirected_row(previous)

    def test_degree_cap_respected(self):
        san = random_san(13, num_social=30, num_edges=500)
        frozen = san.freeze()
        indptr, indices = capped_undirected_csr(frozen.social, degree_cap=3, rng=1)
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
        (isolated, _), paths = walk_ids(frozen.social, [3, 1], 5, seed=2)
        assert paths[0].tolist() == [isolated] + [-1] * 5
        assert (paths[1] >= 0).all()  # bounces between 1 and 2

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory):
        san = factory()
        frozen = san.freeze()
        starts, paths = walk_ids(frozen.social, list(san.social_nodes()), 4, seed=3)
        assert paths.shape == (len(starts), 5)
        assert (paths[:, 0] == starts).all()


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
        for (source, target), row in zip(pairs, frozen_rows):
            expected = pair_features(san, source, target)
            assert row.keys() == expected.keys()
            for key, value in expected.items():
                assert math.isclose(row[key], value, rel_tol=1e-9, abs_tol=1e-12)
        assert not frozen.has_derived("common_neighbor_matrix")
        assert not frozen.has_derived("adamic_adar_matrix")
        assert len(calls) == 1

    @pytest.mark.parametrize("factory", EDGE_CASES)
    def test_edge_cases(self, factory, scipy_mode):
        san = factory()
        assert pair_features_batch(san.freeze(), []) == []
        assert pair_features_batch(san, []) == []


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

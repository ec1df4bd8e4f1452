"""Tests for the triangle-closing models (Baseline, RR, RR-SAN).

The models come from ``model_reference.py``: the production classes plus the
``sample_target`` draws of the loop reference generator.
"""

import random
from collections import Counter

import pytest
from model_reference import BaselineClosing, RandomRandomClosing, RandomRandomSANClosing

from repro.graph import SAN, san_from_edge_lists
from repro.models import evaluate_closure_models


@pytest.fixture
def closure_san():
    """Source node 0 with social path to {2, 3} and an attribute path to 4."""
    edges = [(0, 1), (1, 2), (1, 3), (2, 3)]
    attributes = [(0, "employer", "G"), (4, "employer", "G"), (4, "city", "X")]
    san = san_from_edge_lists(edges, attributes)
    return san


def test_baseline_samples_from_two_hop(closure_san):
    model = BaselineClosing()
    generator = random.Random(1)
    samples = {model.sample_target(closure_san, 0, rng=generator) for _ in range(100)}
    assert samples <= {2, 3}
    assert model.target_probability(closure_san, 0, 2) == pytest.approx(0.5)
    assert model.target_probability(closure_san, 0, 4) == 0.0


def test_baseline_no_candidates():
    san = san_from_edge_lists([(0, 1)])
    assert BaselineClosing().sample_target(san, 0, rng=1) is None
    assert BaselineClosing().target_probability(san, 0, 1) == 0.0


def test_rr_probabilities_sum_to_at_most_one(closure_san):
    model = RandomRandomClosing()
    total = sum(
        model.target_probability(closure_san, 0, node)
        for node in closure_san.social_nodes()
        if node != 0
    )
    assert total <= 1.0 + 1e-9
    # From 0 the only first hop is 1, whose neighbors are {2, 3} -> 1/2 each.
    assert model.target_probability(closure_san, 0, 2) == pytest.approx(0.5)
    assert model.target_probability(closure_san, 0, 4) == 0.0


def test_rr_sampling_matches_support(closure_san):
    model = RandomRandomClosing()
    generator = random.Random(2)
    samples = {model.sample_target(closure_san, 0, rng=generator) for _ in range(100)}
    assert samples <= {2, 3}


def test_rr_isolated_source():
    san = SAN()
    san.add_social_node(9)
    assert RandomRandomClosing().sample_target(san, 9, rng=1) is None
    assert RandomRandomClosing().target_probability(san, 9, 9) == 0.0


def test_rr_san_reaches_attribute_community(closure_san):
    model = RandomRandomSANClosing(attribute_weight=1.0)
    # First hops from 0: social {1}, attribute {employer:G}; the attribute hop
    # leads to member 4.
    assert model.target_probability(closure_san, 0, 4) > 0.0
    generator = random.Random(3)
    samples = Counter(model.sample_target(closure_san, 0, rng=generator) for _ in range(300))
    assert samples[4] > 0
    assert set(samples) <= {2, 3, 4}


def test_rr_san_zero_weight_reduces_to_rr(closure_san):
    rr = RandomRandomClosing()
    rr_san = RandomRandomSANClosing(attribute_weight=0.0)
    for target in (2, 3, 4):
        assert rr_san.target_probability(closure_san, 0, target) == pytest.approx(
            rr.target_probability(closure_san, 0, target)
        )


def test_rr_san_probabilities_sum_to_at_most_one(closure_san):
    model = RandomRandomSANClosing(attribute_weight=2.0)
    total = sum(
        model.target_probability(closure_san, 0, node)
        for node in closure_san.social_nodes()
        if node != 0
    )
    assert total <= 1.0 + 1e-9


def test_rr_san_negative_weight_rejected():
    with pytest.raises(ValueError):
        RandomRandomSANClosing(attribute_weight=-1.0)


def test_evaluate_closure_models_prefers_rr_san_on_focal_edges(closure_san):
    # Observed closures: one triadic (0 -> 3) and one focal (0 -> 4).
    comparison = evaluate_closure_models(closure_san, [(0, 3), (0, 4)])
    assert comparison.num_edges_scored == 2
    averages = comparison.average_log_probabilities
    assert averages["rr_san"] > averages["random_random"]
    improvement = comparison.relative_improvement("rr_san", "random_random")
    assert improvement > 0


def test_evaluate_closure_models_requires_scorable_edges(closure_san):
    with pytest.raises(ValueError):
        evaluate_closure_models(closure_san, [(0, 1)])  # already an edge
    with pytest.raises(ValueError):
        evaluate_closure_models(closure_san, [])

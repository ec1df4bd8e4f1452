"""Tests for sampling utilities (attribute subsampling, reservoirs) and the
reference generator's weighted choice."""

import pytest
from model_reference import weighted_choice

from repro.algorithms import (
    drop_users_attributes,
    reservoir_sample,
    sample_nodes,
    sample_social_edges,
    subsample_attributes,
)


def test_sample_nodes_without_replacement(figure1_san):
    nodes = sample_nodes(figure1_san, 3, rng=1)
    assert len(nodes) == 3
    assert len(set(nodes)) == 3
    assert sample_nodes(figure1_san, 100, rng=1) == list(figure1_san.social_nodes())


def test_sample_social_edges(figure1_san):
    edges = sample_social_edges(figure1_san, 4, rng=2)
    assert len(edges) == 4
    for source, target in edges:
        assert figure1_san.has_social_edge(source, target)


def test_subsample_attributes_keeps_social_layer(figure1_san):
    subsampled = subsample_attributes(figure1_san, keep_probability=0.5, rng=3)
    assert subsampled.number_of_social_edges() == figure1_san.number_of_social_edges()
    assert subsampled.number_of_attribute_edges() <= figure1_san.number_of_attribute_edges()


def test_subsample_attributes_extremes(figure1_san):
    none_kept = subsample_attributes(figure1_san, keep_probability=0.0, rng=4)
    all_kept = subsample_attributes(figure1_san, keep_probability=1.0, rng=4)
    assert none_kept.number_of_attribute_edges() == 0
    assert all_kept.number_of_attribute_edges() == figure1_san.number_of_attribute_edges()


def test_subsample_attributes_validates_probability(figure1_san):
    with pytest.raises(ValueError):
        subsample_attributes(figure1_san, keep_probability=1.5)


def test_drop_users_attributes_all_or_nothing(figure1_san):
    dropped = drop_users_attributes(figure1_san, keep_probability=0.5, rng=5)
    for node in dropped.social_nodes():
        original = figure1_san.attribute_degree(node)
        kept = dropped.attribute_degree(node)
        assert kept in (0, original)


def test_reservoir_sample_uniformity_and_size():
    sample = reservoir_sample(range(1000), 10, rng=7)
    assert len(sample) == 10
    assert len(set(sample)) == 10
    short = reservoir_sample(range(3), 10, rng=7)
    assert sorted(short) == [0, 1, 2]


def test_weighted_choice_respects_weights():
    counts = {"a": 0, "b": 0}
    import random

    generator = random.Random(9)
    for _ in range(2000):
        counts[weighted_choice(["a", "b"], [9.0, 1.0], rng=generator)] += 1
    assert counts["a"] > counts["b"] * 4


def test_weighted_choice_zero_weights_falls_back_to_uniform():
    choice = weighted_choice(["a", "b"], [0.0, 0.0], rng=1)
    assert choice in ("a", "b")


def test_weighted_choice_validation():
    with pytest.raises(ValueError):
        weighted_choice(["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_choice([], [])
    with pytest.raises(ValueError):
        weighted_choice(["a"], [-1.0])

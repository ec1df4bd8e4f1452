"""Tests for attribute subsampling and the reference generator's weighted
choice."""

import pytest
from model_reference import weighted_choice

from repro.algorithms import subsample_attributes


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

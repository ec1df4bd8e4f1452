"""Tests for attribute vocabularies and the profile model."""

import random
from collections import Counter

import pytest

from repro.synthetic import (
    NAMED_VALUES,
    AttributeVocabulary,
    ProfileModel,
    build_vocabulary,
)

ATTRIBUTE_TYPES = ("employer", "school", "major", "city")


def vocabularies(num_values):
    return {t: build_vocabulary(t, num_values=num_values) for t in ATTRIBUTE_TYPES}


def test_build_vocabulary_has_named_heads():
    vocabulary = build_vocabulary("employer", num_values=50)
    assert vocabulary.values[: len(NAMED_VALUES["employer"])] == NAMED_VALUES["employer"]
    assert len(vocabulary) == 50
    assert vocabulary.attr_type == "employer"


def test_vocabulary_requires_values():
    with pytest.raises(ValueError):
        AttributeVocabulary(attr_type="x", values=[])


def test_vocabulary_sampling_is_zipf_skewed():
    vocabulary = build_vocabulary("city", num_values=100, zipf_exponent=1.2)
    generator = random.Random(1)
    counts = Counter(vocabulary.sample(rng=generator) for _ in range(5000))
    head = counts[vocabulary.values[0]]
    tail = counts[vocabulary.values[-1]]
    assert head > tail * 3


def test_vocabulary_tech_tilt_boosts_tech_values():
    vocabulary = build_vocabulary("employer", num_values=100)
    generator = random.Random(2)
    tilted = Counter(vocabulary.sample(rng=generator, tech_tilt=0.9) for _ in range(2000))
    untilted = Counter(vocabulary.sample(rng=generator, tech_tilt=0.0) for _ in range(2000))
    tech = {"Google", "Microsoft", "Intel", "Facebook"}
    tilted_share = sum(tilted[v] for v in tech) / 2000
    untilted_share = sum(untilted[v] for v in tech) / 2000
    assert tilted_share > untilted_share


def test_profile_model_declaration_rate():
    model = ProfileModel(vocabularies=vocabularies(50), declare_probability=0.22)
    generator = random.Random(3)
    declared = sum(1 for _ in range(3000) if model.sample_profile(rng=generator))
    assert declared / 3000 == pytest.approx(0.22, abs=0.03)


def test_profile_model_declares_known_types():
    model = ProfileModel(vocabularies=vocabularies(50), declare_probability=1.0)
    generator = random.Random(4)
    profile = {}
    while not profile:
        profile = model.sample_profile(rng=generator)
    assert set(profile) <= set(ATTRIBUTE_TYPES)


def test_profile_model_inviter_copy():
    model = ProfileModel(
        vocabularies=vocabularies(50),
        declare_probability=1.0,
        inviter_copy_probability=1.0,
        type_probabilities={"employer": 1.0, "school": 0.0, "major": 0.0, "city": 0.0},
    )
    generator = random.Random(5)
    inviter_profile = {"employer": "Infosys"}
    copies = sum(
        1
        for _ in range(200)
        if model.sample_profile(rng=generator, inviter_profile=inviter_profile).get("employer")
        == "Infosys"
    )
    assert copies == 200

"""Tests for lifetime sampling and the Theorem 1 / Theorem 2 predictions."""

import math
import random

import numpy as np
import pytest

from repro.models import (
    LifetimeParameters,
    SANModelParameters,
    harmonic_outdegree_approximation,
    invert_theorem_one,
    invert_theorem_two,
    predicted_attribute_degree_lognormal,
    predicted_attribute_social_degree_exponent,
    predicted_outdegree_lognormal,
    sample_sleep_time,
    truncated_normal_moments,
)
from repro.models.lifetime import truncated_normal_block


def test_lifetime_samples_nonnegative():
    params = LifetimeParameters(mu=-1.0, sigma=2.0, mean_sleep=1.0)
    samples = truncated_normal_block(params, np.random.default_rng(1), 500)
    assert samples.shape == (500,)
    assert (samples >= 0).all()


def test_lifetime_mean_matches_truncated_normal():
    params = LifetimeParameters(mu=3.0, sigma=2.5, mean_sleep=2.0)
    samples = truncated_normal_block(params, np.random.default_rng(2), 4000)
    expected_mean, expected_variance = truncated_normal_moments(3.0, 2.5)
    assert samples.mean() == pytest.approx(expected_mean, rel=0.05)
    assert samples.var() == pytest.approx(expected_variance, rel=0.1)


def test_truncated_normal_moments_no_truncation_limit():
    mean, variance = truncated_normal_moments(50.0, 1.0)
    assert mean == pytest.approx(50.0, abs=1e-6)
    assert variance == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        truncated_normal_moments(1.0, -1.0)


def test_sleep_time_mean_inversely_proportional_to_degree():
    params = LifetimeParameters(mu=3.0, sigma=2.5, mean_sleep=4.0)
    generator = random.Random(3)
    low = [sample_sleep_time(params, 1, rng=generator) for _ in range(3000)]
    high = [sample_sleep_time(params, 8, rng=generator) for _ in range(3000)]
    assert sum(low) / len(low) == pytest.approx(4.0, rel=0.1)
    assert sum(high) / len(high) == pytest.approx(0.5, rel=0.15)


def test_predicted_outdegree_lognormal():
    params = SANModelParameters(
        steps=10, lifetime=LifetimeParameters(mu=3.0, sigma=2.5, mean_sleep=2.0)
    )
    prediction = predicted_outdegree_lognormal(params)
    mean, variance = truncated_normal_moments(3.0, 2.5)
    assert prediction.mu == pytest.approx(mean / 2.0)
    assert prediction.sigma == pytest.approx(math.sqrt(variance) / 2.0)


def test_predicted_attribute_degree_lognormal():
    params = SANModelParameters(steps=10, attribute_mu=1.3, attribute_sigma=0.6)
    prediction = predicted_attribute_degree_lognormal(params)
    assert prediction.mu == 1.3 and prediction.sigma == 0.6


def test_theorem_two_exponent():
    params = SANModelParameters(steps=10, new_attribute_probability=0.25)
    assert predicted_attribute_social_degree_exponent(params) == pytest.approx(
        (2 - 0.25) / (1 - 0.25)
    )
    with pytest.raises(ValueError):
        predicted_attribute_social_degree_exponent(
            SANModelParameters(steps=10, new_attribute_probability=1.0)
        )


def test_invert_theorem_one_round_trip():
    lifetime = invert_theorem_one(target_mu=1.8, target_sigma=1.0, mean_sleep=2.0)
    mean, variance = truncated_normal_moments(lifetime.mu, lifetime.sigma)
    assert mean / 2.0 == pytest.approx(1.8, abs=0.05)
    assert math.sqrt(variance) / 2.0 == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        invert_theorem_one(1.0, -0.5)


def test_invert_theorem_two_round_trip():
    p = invert_theorem_two(2.3333333)
    assert p == pytest.approx(0.25, abs=1e-3)
    with pytest.raises(ValueError):
        invert_theorem_two(1.5)


def test_harmonic_outdegree_approximation():
    assert harmonic_outdegree_approximation(0.0, 2.0) == pytest.approx(1.0)
    assert harmonic_outdegree_approximation(4.0, 2.0) == pytest.approx(math.exp(2.0))
    with pytest.raises(ValueError):
        harmonic_outdegree_approximation(1.0, 0.0)


def test_lifetime_parameters_validation():
    with pytest.raises(ValueError):
        LifetimeParameters(mu=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        LifetimeParameters(mu=1.0, sigma=1.0, mean_sleep=0.0)

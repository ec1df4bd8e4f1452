"""Tests for maximum-likelihood fitting of the candidate distributions."""

import numpy as np
import pytest

from repro.fitting import (
    DiscreteLognormal,
    PowerLaw,
    fit_exponential,
    fit_lognormal,
    fit_lognormal_parameters_over_time,
    fit_power_law,
    fit_power_law_exponent_over_time,
    fit_power_law_with_cutoff,
)


RNG = np.random.default_rng(11)


def test_fit_power_law_recovers_exponent():
    true = PowerLaw(alpha=2.4, xmin=1)
    samples = true.sample(6000, RNG)
    fit = fit_power_law(samples)
    assert fit.distribution.alpha == pytest.approx(2.4, abs=0.15)
    assert fit.num_samples == 6000
    assert fit.log_likelihood < 0


def test_fit_power_law_with_xmin():
    true = PowerLaw(alpha=2.8, xmin=3)
    samples = true.sample(4000, RNG)
    fit = fit_power_law(samples, xmin=3)
    assert fit.distribution.alpha == pytest.approx(2.8, abs=0.2)


def test_fit_lognormal_recovers_parameters():
    true = DiscreteLognormal(mu=1.8, sigma=0.9, xmin=1)
    samples = true.sample(6000, RNG)
    fit = fit_lognormal(samples)
    assert fit.distribution.mu == pytest.approx(1.8, abs=0.2)
    assert fit.distribution.sigma == pytest.approx(0.9, abs=0.2)


def test_fit_rejects_empty_or_all_below_xmin():
    with pytest.raises(ValueError):
        fit_power_law([], xmin=1)
    with pytest.raises(ValueError):
        fit_lognormal([1, 2, 3], xmin=10)


def test_fit_exponential():
    rng = np.random.default_rng(3)
    samples = rng.geometric(p=0.3, size=5000)
    fit = fit_exponential(samples)
    # Geometric(p) corresponds to rate -ln(1-p) ~ 0.357.
    assert fit.distribution.rate == pytest.approx(0.357, abs=0.08)


def test_fit_power_law_with_cutoff_improves_on_pure_power_law_for_cutoff_data():
    from repro.fitting import PowerLawWithCutoff

    true = PowerLawWithCutoff(alpha=1.6, cutoff_rate=0.08, xmin=1)
    samples = true.sample(4000, RNG)
    plain = fit_power_law(samples)
    with_cutoff = fit_power_law_with_cutoff(samples)
    assert with_cutoff.log_likelihood >= plain.log_likelihood - 1e-6


def test_parameters_over_time_helpers():
    lognormal_sequences = []
    power_sequences = []
    for day in (1, 2, 3):
        lognormal_sequences.append(
            (day, DiscreteLognormal(mu=1.0 + 0.1 * day, sigma=0.8).sample(1500, RNG))
        )
        power_sequences.append((day, PowerLaw(alpha=2.5, xmin=1).sample(1500, RNG)))
    lognormal_series = fit_lognormal_parameters_over_time(lognormal_sequences)
    assert [day for day, _, _ in lognormal_series] == [1, 2, 3]
    assert lognormal_series[2][1] > lognormal_series[0][1]  # mu grows over time
    power_series = fit_power_law_exponent_over_time(power_sequences)
    assert all(2.0 < alpha < 3.0 for _, alpha in power_series)


def test_parameters_over_time_skips_tiny_samples():
    series = fit_lognormal_parameters_over_time([(1, [1, 2, 3])])
    assert series == []

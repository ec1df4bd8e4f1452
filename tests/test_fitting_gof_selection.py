"""Tests for goodness-of-fit statistics and best-fit model selection."""

import numpy as np
import pytest

from repro.fitting import (
    DiscreteLognormal,
    PowerLaw,
    best_fit_name,
    compare_distributions,
    empirical_cdf,
    fit_power_law,
    ks_statistic,
    likelihood_ratio_test,
    lognormal_vs_power_law,
)


RNG = np.random.default_rng(23)


def test_empirical_cdf():
    support, cdf = empirical_cdf([1, 1, 2, 4])
    assert list(support) == [1, 2, 4]
    assert cdf[-1] == pytest.approx(1.0)
    assert cdf[0] == pytest.approx(0.5)


def test_ks_statistic_small_for_true_model():
    true = PowerLaw(alpha=2.3, xmin=1)
    samples = true.sample(4000, RNG)
    fitted = fit_power_law(samples)
    assert ks_statistic(samples, fitted.distribution) < 0.05


def test_ks_statistic_large_for_wrong_model():
    lognormal_samples = DiscreteLognormal(mu=2.5, sigma=0.4, xmin=1).sample(4000, RNG)
    wrong = PowerLaw(alpha=2.0, xmin=1)
    assert ks_statistic(lognormal_samples, wrong) > 0.2


def test_ks_statistic_requires_samples_at_xmin():
    with pytest.raises(ValueError):
        ks_statistic([1, 2], PowerLaw(alpha=2.0, xmin=10))


def test_likelihood_ratio_favours_true_family():
    samples = DiscreteLognormal(mu=1.6, sigma=0.7, xmin=1).sample(5000, RNG)
    result = lognormal_vs_power_law(samples)
    assert result.favours_first
    assert result.p_value < 0.05

    power_samples = PowerLaw(alpha=2.5, xmin=1).sample(5000, RNG)
    reverse = lognormal_vs_power_law(power_samples)
    # On power-law data the lognormal should not significantly beat the power law.
    assert (not reverse.favours_first) or reverse.p_value > 0.05 or abs(reverse.normalised_ratio) < 2


def test_likelihood_ratio_degenerate_input():
    dist_a = PowerLaw(alpha=2.0, xmin=1)
    dist_b = PowerLaw(alpha=2.0, xmin=1)
    result = likelihood_ratio_test([2, 2, 2], dist_a, dist_b)
    assert result.ratio == pytest.approx(0.0)
    assert result.p_value == 1.0


def test_compare_distributions_and_best_fit_lognormal_data():
    samples = DiscreteLognormal(mu=1.8, sigma=0.8, xmin=1).sample(4000, RNG)
    comparison = compare_distributions(samples)
    assert "lognormal" in comparison.fits
    assert comparison.best_name == "lognormal"
    assert best_fit_name(samples) == "lognormal"
    assert comparison.fits[comparison.best_name].name == "lognormal"


def test_compare_distributions_power_law_data():
    samples = PowerLaw(alpha=2.6, xmin=1).sample(4000, RNG)
    name = best_fit_name(samples)
    assert name in ("power_law", "power_law_with_cutoff")


def test_compare_distributions_reports_ks(figure1_san=None):
    samples = PowerLaw(alpha=2.2, xmin=1).sample(1500, RNG)
    comparison = compare_distributions(samples)
    assert set(comparison.ks).issuperset({"power_law", "lognormal"})

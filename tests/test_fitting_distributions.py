"""Tests for the candidate discrete distributions."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from repro.fitting import (
    DiscreteExponential,
    DiscreteLognormal,
    PowerLaw,
    PowerLawWithCutoff,
    truncated_normal_mean_variance,
)


RNG = np.random.default_rng(7)


def test_power_law_pmf_normalises():
    dist = PowerLaw(alpha=2.5, xmin=1)
    ks = np.arange(1, 20000)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-2)


def test_power_law_pmf_monotone_decreasing():
    dist = PowerLaw(alpha=2.0, xmin=1)
    pmf = dist.pmf([1, 2, 5, 10, 100])
    assert all(a > b for a, b in zip(pmf, pmf[1:]))


def test_power_law_rejects_below_xmin():
    dist = PowerLaw(alpha=2.5, xmin=5)
    with pytest.raises(ValueError):
        dist.log_pmf([1])


def test_power_law_sampling_respects_xmin_and_tail():
    dist = PowerLaw(alpha=2.5, xmin=2)
    samples = dist.sample(5000, RNG)
    assert samples.min() >= 2
    # Heavy tail: some samples should exceed 20.
    assert samples.max() > 20


def test_lognormal_pmf_normalises():
    dist = DiscreteLognormal(mu=1.0, sigma=0.7, xmin=1)
    ks = np.arange(1, 5000)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-3)


def test_lognormal_mode_near_exp_mu():
    dist = DiscreteLognormal(mu=2.0, sigma=0.5, xmin=1)
    ks = np.arange(1, 200)
    pmf = dist.pmf(ks)
    mode = ks[int(np.argmax(pmf))]
    assert 3 <= mode <= 9  # exp(2 - 0.25) ~ 5.8 for the 1/k-weighted form


def test_lognormal_sampling_statistics():
    dist = DiscreteLognormal(mu=1.5, sigma=0.6, xmin=1)
    samples = dist.sample(8000, RNG)
    assert samples.min() >= 1
    log_mean = float(np.mean(np.log(samples)))
    assert log_mean == pytest.approx(1.5, abs=0.15)


@pytest.mark.parametrize("mu,sigma", [(1.0, 1.5), (3.0, 0.8)])
def test_lognormal_sample_frequencies_follow_the_pmf(mu, sigma):
    # Pearson's chi-square over every k whose expected count is at least 5,
    # the rest pooled.  Rounded continuous draws would put 34.7% of them on
    # k = 1 at (1.0, 1.5), where the pmf has 24.7%.
    dist = DiscreteLognormal(mu=mu, sigma=sigma)
    draws = dist.sample(200_000, np.random.default_rng(5))
    expected = dist.pmf(np.arange(1, 5001)) * draws.size
    bins = int(np.flatnonzero(expected >= 5)[-1]) + 1
    expected = np.append(expected[:bins], draws.size - expected[:bins].sum())
    observed = np.bincount(np.minimum(draws, bins + 1), minlength=bins + 2)[1:]
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(statistic, bins) > 1e-3, (statistic, bins)


def test_power_law_with_cutoff_decays_faster_than_power_law():
    plain = PowerLaw(alpha=2.0, xmin=1)
    cutoff = PowerLawWithCutoff(alpha=2.0, cutoff_rate=0.05, xmin=1)
    ratio_small = cutoff.pmf([2])[0] / plain.pmf([2])[0]
    ratio_large = cutoff.pmf([200])[0] / plain.pmf([200])[0]
    assert ratio_large < ratio_small


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.3])
def test_heavy_tail_samples_stay_integers_at_or_above_xmin(alpha):
    # The continuous tail passes the int64 range for alpha near 1; before
    # the cap the invalid cast turned such draws into -9.2e18.
    for dist in (
        PowerLaw(alpha=alpha, xmin=3),
        PowerLawWithCutoff(alpha=alpha, cutoff_rate=1e-9, xmin=3),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = dist.sample(200_000, np.random.default_rng(0))
        assert samples.dtype == np.int64
        assert samples.min() >= 3
        assert samples.max() <= 2 ** 62


def test_power_law_with_cutoff_sampling():
    dist = PowerLawWithCutoff(alpha=1.8, cutoff_rate=0.1, xmin=1)
    samples = dist.sample(2000, RNG)
    assert samples.min() >= 1
    assert samples.mean() < 40


def test_exponential_pmf_and_sampling():
    dist = DiscreteExponential(rate=0.5, xmin=1)
    ks = np.arange(1, 200)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-6)
    samples = dist.sample(5000, RNG)
    assert samples.min() >= 1
    assert samples.mean() == pytest.approx(1.0 / (1 - math.exp(-0.5)), rel=0.1)


def test_parameters_and_names():
    assert PowerLaw(2.1).name == "power_law"
    assert DiscreteLognormal(1, 1).name == "lognormal"
    assert PowerLawWithCutoff(2, 0.1).name == "power_law_with_cutoff"
    assert DiscreteExponential(0.3).name == "exponential"
    assert PowerLaw(2.1, xmin=3).parameters()["xmin"] == 3


def test_truncated_normal_mean_variance():
    # With mu >> sigma truncation is negligible.
    mean, variance = truncated_normal_mean_variance(10.0, 1.0)
    assert mean == pytest.approx(10.0, abs=0.01)
    assert variance == pytest.approx(1.0, abs=0.01)
    # With mu = 0 the truncated mean is sigma * sqrt(2/pi).
    mean0, variance0 = truncated_normal_mean_variance(0.0, 2.0)
    assert mean0 == pytest.approx(2.0 * math.sqrt(2 / math.pi), rel=1e-3)
    assert variance0 < 4.0
    with pytest.raises(ValueError):
        truncated_normal_mean_variance(1.0, 0.0)

"""Accuracy of the discrete-lognormal normaliser and MLE against full-support sums.

``DiscreteLognormal._log_normaliser`` sums the first ``LOGNORMAL_EXACT_HEAD``
support points exactly and adds the rest in closed form (Euler-Maclaurin);
``fit_lognormal`` evaluates its objective from sufficient statistics.  The
references here are the term-by-term methods they replace: a sum over the
whole support up to the same cutoff, and a per-sample log-pmf objective.
"""

import functools
import math

import numpy as np
import pytest

from repro.fitting.distributions import (
    DEFAULT_SUPPORT_MAX,
    LOGNORMAL_EXACT_HEAD,
    DiscreteLognormal,
)
from repro.fitting.mle import _golden_section, fit_lognormal

#: |delta log Z| <= NORMALISER_RTOL * max(1, |log Z|).
NORMALISER_RTOL = 1e-10
#: The golden-section tolerance of the fit.
FIT_TOLERANCE = 1e-4

MUS = np.round(np.arange(-1.0, 9.01, 0.5), 2)
SIGMAS = (0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0, 3.0)


def _cutoff(mu: float, sigma: float) -> int:
    return min(DEFAULT_SUPPORT_MAX, max(1000, int(math.exp(mu + 8 * sigma))))


@functools.lru_cache(maxsize=1)  # one 8 MB array; each test uses one xmin
def _support_logs(xmin: int) -> np.ndarray:
    return np.log(np.arange(xmin, DEFAULT_SUPPORT_MAX + 1, dtype=float))


def full_support_log_normaliser(mu: float, sigma: float, xmin: int) -> float:
    """log of the weights summed term by term over the whole support."""
    logs = _support_logs(xmin)[: _cutoff(mu, sigma) - xmin + 1]
    log_weights = -logs - (logs - mu) ** 2 / (2 * sigma ** 2)
    peak = float(np.max(log_weights))
    return peak + math.log(float(np.sum(np.exp(log_weights - peak))))


def _assert_close(mu: float, sigma: float, xmin: int) -> None:
    expected = full_support_log_normaliser(mu, sigma, xmin)
    actual = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin)._log_normaliser()
    assert abs(actual - expected) <= NORMALISER_RTOL * max(1.0, abs(expected)), (
        mu, sigma, xmin, actual, expected,
    )


@pytest.mark.parametrize("xmin", [1, 2, 5])
def test_log_normaliser_matches_full_support_sum_over_the_grid(xmin):
    # The grid holds cutoffs at the 10^6 cap, supports with no tail, and
    # mu = 7.5, sigma = 0.05, whose peak straddles the 2,048-point split.
    cutoffs = {_cutoff(float(mu), sigma) for mu in MUS for sigma in SIGMAS}
    assert DEFAULT_SUPPORT_MAX in cutoffs and min(cutoffs) < LOGNORMAL_EXACT_HEAD
    for mu in MUS:
        for sigma in SIGMAS:
            _assert_close(float(mu), sigma, xmin)


@pytest.mark.parametrize("mu", [7.55, 7.6, 7.62, 7.65, 7.7])
@pytest.mark.parametrize("sigma", [0.005, 0.02, 0.05])
def test_log_normaliser_with_the_peak_on_the_split(mu, sigma):
    # Narrow weights (sigma * k < 50 over the tail) fall back to the full sum.
    _assert_close(mu, sigma, 1)


@pytest.mark.parametrize("mu,sigma", [(15.0, 0.5), (20.0, 0.1)])
def test_log_normaliser_with_the_cap_below_the_median(mu, sigma):
    _assert_close(mu, sigma, 1)


def test_log_normaliser_without_a_tail_is_the_plain_sum():
    for mu, sigma, xmin in ((1.0, 0.5, 1), (2.0, 0.6, 2), (-1.0, 1.0, 5)):
        assert _cutoff(mu, sigma) < xmin + LOGNORMAL_EXACT_HEAD
        actual = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin)._log_normaliser()
        assert actual == full_support_log_normaliser(mu, sigma, xmin)


def reference_fit(data: np.ndarray, xmin: int):
    """The coordinate golden-section search on the per-sample objective."""
    logs = np.log(data)
    mu_best = float(np.mean(logs))
    sigma_best = max(float(np.std(logs)), 0.05)

    def negative_log_likelihood(mu: float, sigma: float) -> float:
        log_weights = -logs - (logs - mu) ** 2 / (2 * sigma ** 2)
        return -float(np.sum(log_weights - full_support_log_normaliser(mu, sigma, xmin)))

    for _ in range(3):
        mu_best = _golden_section(
            lambda m: negative_log_likelihood(m, sigma_best), mu_best - 1.5, mu_best + 1.5
        )
        sigma_best = _golden_section(
            lambda s: negative_log_likelihood(mu_best, s),
            max(0.05, sigma_best * 0.4),
            sigma_best * 2.5 + 0.1,
        )
    return mu_best, sigma_best


@pytest.mark.parametrize(
    "mu,sigma,xmin",
    [(2.0, 1.0, 1), (1.0, 1.5, 1), (4.0, 0.6, 2), (7.6, 0.1, 1), (0.5, 1.2, 5)],
)
def test_fit_lognormal_matches_the_per_sample_objective(mu, sigma, xmin):
    data = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin).sample(
        2000, np.random.default_rng(11)
    )
    fit = fit_lognormal(data, xmin=xmin)
    expected_mu, expected_sigma = reference_fit(data, xmin)
    assert abs(fit.distribution.mu - expected_mu) <= FIT_TOLERANCE
    assert abs(fit.distribution.sigma - expected_sigma) <= FIT_TOLERANCE

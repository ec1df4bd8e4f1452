"""Accuracy of the discrete-lognormal normaliser and MLE against full-support sums.

``DiscreteLognormal._log_normaliser`` sums the first ``EXACT_HEAD``
support points exactly and adds the rest in closed form (Euler-Maclaurin);
``fit_lognormal`` runs Newton's method on sufficient statistics.  The
references here share no code with either: a sum over the whole support up
to the same cutoff, and scipy's optimum of the per-sample log-pmf objective
over the fit's box.
"""

import functools
import math

import numpy as np
import pytest

from scipy.optimize import minimize

from repro.fitting.distributions import (
    DEFAULT_SUPPORT_MAX,
    EXACT_HEAD,
    DiscreteLognormal,
    PowerLaw,
)
from repro.fitting.mle import MU_REACH, SIGMA_MAX, SIGMA_MIN, fit_lognormal

#: |delta log Z| <= NORMALISER_RTOL * max(1, |log Z|).
NORMALISER_RTOL = 1e-10

MUS = np.round(np.arange(-1.0, 9.01, 0.5), 2)
SIGMAS = (0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0, 3.0)


def _cutoff(mu: float, sigma: float, xmin: int = 1) -> int:
    """The last support point: e^(mu + 8 sigma), clamped to xmin - 1 + [1000, 10^6]."""
    top = int(math.exp(min(mu + 8 * sigma, 20.0)))
    return min(xmin - 1 + DEFAULT_SUPPORT_MAX, max(xmin + 999, top))


@functools.lru_cache(maxsize=1)  # one 8 MB array; each test uses one xmin
def _support_logs(xmin: int) -> np.ndarray:
    return np.log(np.arange(xmin, xmin + DEFAULT_SUPPORT_MAX, dtype=float))


def full_support_log_normaliser(mu: float, sigma: float, xmin: int) -> float:
    """log of the weights summed term by term over the whole support."""
    logs = _support_logs(xmin)[: _cutoff(mu, sigma, xmin) - xmin + 1]
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
    assert DEFAULT_SUPPORT_MAX in cutoffs and min(cutoffs) < EXACT_HEAD
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
        assert _cutoff(mu, sigma, xmin) < xmin + EXACT_HEAD
        actual = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin)._log_normaliser()
        assert actual == full_support_log_normaliser(mu, sigma, xmin)


def _nll(data: np.ndarray, xmin: int):
    """The per-sample negative log-likelihood over the full support, of (mu, sigma)."""
    values, counts = np.unique(data, return_counts=True)
    logs = np.log(values)

    def negative_log_likelihood(parameters) -> float:
        mu, sigma = parameters
        log_weights = -logs - (logs - mu) ** 2 / (2 * sigma ** 2)
        return -float(counts @ log_weights) + data.size * full_support_log_normaliser(
            mu, sigma, xmin
        )

    return negative_log_likelihood


def oracle_fit(data: np.ndarray, xmin: int):
    """``(nll, (mu, sigma))``: scipy's optimum of the per-sample objective over the box.

    L-BFGS-B within ``|mu - m| <= 4.5`` and ``0.05 <= sigma <= 10`` from the moments
    of ``ln k``, then a Nelder-Mead polish; neither shares code with the fit.
    """
    negative_log_likelihood = _nll(data, xmin)
    logs = np.log(data)
    center = float(np.mean(logs))
    bounds = [(center - MU_REACH, center + MU_REACH), (SIGMA_MIN, SIGMA_MAX)]
    start = [center, min(max(float(np.std(logs)), SIGMA_MIN), SIGMA_MAX)]
    first = minimize(negative_log_likelihood, start, method="L-BFGS-B", bounds=bounds)
    polished = minimize(
        negative_log_likelihood,
        first.x,
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": 2000},
    )
    best = min((first, polished), key=lambda result: result.fun)
    return float(best.fun), tuple(best.x)


def _assert_at_the_oracle_optimum(data: np.ndarray, xmin: int) -> None:
    fit = fit_lognormal(data, xmin=xmin)
    oracle_value, oracle_parameters = oracle_fit(data, xmin)
    context = (fit.distribution, oracle_parameters)
    assert -fit.log_likelihood <= oracle_value + 1e-6 * data.size, context
    # The reported log-likelihood is the per-sample one of the reported parameters.
    mu, sigma = fit.distribution.mu, fit.distribution.sigma
    assert -fit.log_likelihood == pytest.approx(_nll(data, xmin)((mu, sigma)), rel=1e-10)
    center = float(np.mean(np.log(data)))
    assert SIGMA_MIN * (1 - 1e-12) <= sigma <= SIGMA_MAX * (1 + 1e-12)
    assert abs(mu - center) <= MU_REACH * (1 + 1e-12)


@pytest.mark.parametrize(
    "mu,sigma,xmin",
    [(2.0, 1.0, 1), (1.0, 1.5, 1), (4.0, 0.6, 2), (7.6, 0.1, 1), (0.5, 1.2, 5)],
)
def test_fit_lognormal_matches_the_per_sample_objective(mu, sigma, xmin):
    # (7.6, 0.1) puts about half the mass past the exact head, so a fit
    # that drops the Euler-Maclaurin tail from its gradient misses here.
    data = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin).sample(
        2000, np.random.default_rng(11)
    )
    _assert_at_the_oracle_optimum(data, xmin)


def test_fit_lognormal_reaches_the_joint_optimum_past_the_coordinate_search():
    # Rounded continuous draws at mu 1.0, sigma 1.5: a coordinate-wise
    # golden-section search ends on them at mu 0.657, sigma 1.597 with
    # log-likelihood -5438.5757, 4.06 nats short of the joint optimum.
    draws = np.random.default_rng(11).lognormal(1.0, 1.5, size=2000)
    data = np.maximum(1, np.round(draws)).astype(int)
    fit = fit_lognormal(data)
    assert fit.distribution.mu == pytest.approx(0.368, abs=1e-3)
    assert fit.distribution.sigma == pytest.approx(1.735, abs=1e-3)
    assert fit.log_likelihood > -5438.5757 + 4.0
    _assert_at_the_oracle_optimum(data, 1)


def test_fit_lognormal_at_the_power_law_limit_ends_on_the_box_edge():
    # Power-law data pull the lognormal towards mu -> -inf, sigma -> inf;
    # the constrained optimum sits on the edge mu = m - 4.5.
    data = PowerLaw(alpha=2.2).sample(3000, np.random.default_rng(1))
    fit = fit_lognormal(data)
    center = float(np.mean(np.log(data)))
    assert fit.distribution.mu == pytest.approx(center - MU_REACH, abs=1e-9)
    _assert_at_the_oracle_optimum(data, 1)

"""Accuracy of the power-law, cutoff and exponential fits, and recovery for every family.

The fits evaluate a normaliser on every Newton iterate, so neither of these
sums its support term by term: each is an exact head plus an Euler-Maclaurin
tail.  The references share no code with them: float sums over the same
support for the cutoff; for the power law, ``scipy.special.zeta`` (imported
here only) and a sum over 10^7 terms plus its Euler-Maclaurin tail.  The
power-law and cutoff fits must reach scipy's optimum of the per-sample
objective over their boxes, and the exponential fit, closed-form, must sit
at the argmax of its log-likelihood on a fine grid.  Every family then
recovers known parameters from its own ``sample()``.
"""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.special import zeta

from repro.fitting import (
    DiscreteLognormal,
    PowerLaw,
    fit_exponential,
    fit_lognormal,
    fit_power_law,
    fit_power_law_with_cutoff,
)
from repro.fitting.distributions import (
    DEFAULT_SUPPORT_MAX,
    EXACT_HEAD,
    DiscreteExponential,
    PowerLawWithCutoff,
)
from repro.fitting.mle import ALPHA_RANGE, CUTOFF_MAX, CUTOFF_MIN

#: |delta log Z| <= NORMALISER_RTOL * max(1, |log Z|).
NORMALISER_RTOL = 1e-10

#: Terms the power-law reference sums before its Euler-Maclaurin tail.
ZETA_TERMS = 10 ** 7
ZETA_CHUNK = 10 ** 6


def _assert_normaliser_close(actual: float, expected: float, context) -> None:
    assert abs(actual - expected) <= NORMALISER_RTOL * max(1.0, abs(expected)), (
        context, actual, expected,
    )


# ----------------------------------------------------------------------
# Power law: zeta(alpha, xmin)
# ----------------------------------------------------------------------
def zeta_reference(alpha: float, xmin: int) -> float:
    """sum_{k >= xmin} k^-alpha: 10^7 terms, then Euler-Maclaurin from N = 10^7."""
    head = 0.0
    for start in range(xmin, ZETA_TERMS, ZETA_CHUNK):
        ks = np.arange(start, min(start + ZETA_CHUNK, ZETA_TERMS), dtype=float)
        head += float(np.sum(ks ** -alpha))
    n = float(ZETA_TERMS)
    tail = n ** (1 - alpha) / (alpha - 1) + n ** -alpha / 2 + alpha * n ** (-alpha - 1) / 12
    return head + tail


@pytest.mark.parametrize("xmin", [1, 2, 5, 10])
@pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 2.0, 2.5, 3.5, 6.0])
def test_power_law_normaliser_is_the_hurwitz_zeta(alpha, xmin):
    expected = math.log(zeta_reference(alpha, xmin))
    actual = math.log(PowerLaw(alpha=alpha, xmin=xmin)._normaliser())
    _assert_normaliser_close(actual, expected, (alpha, xmin))


@pytest.mark.parametrize("xmin", [1, 2, 5, 10, 50])
def test_power_law_normaliser_matches_scipy_zeta(xmin):
    for alpha in np.linspace(1.01, 6.0, 100):
        expected = float(zeta(alpha, xmin))
        actual = PowerLaw(alpha=float(alpha), xmin=xmin)._normaliser()
        assert abs(actual - expected) <= 1e-12 * expected, (alpha, xmin, actual, expected)


def test_power_law_normaliser_below_one_is_the_truncated_sum():
    ks = np.arange(1, 100000, dtype=float)
    assert PowerLaw(alpha=0.8, xmin=1)._normaliser() == float(np.sum(ks ** -0.8))


# ----------------------------------------------------------------------
# Power law with cutoff: exact head + Euler-Maclaurin tail
# ----------------------------------------------------------------------
CUTOFF_ALPHAS = (0.05, 0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0, 2.0 - 1e-9, 2.5, 3.5, 6.0)
CUTOFF_RATES = (1e-7, 1e-5, 1e-4, 1e-3, 0.005, 0.0097, 0.05)


def _cutoff_support_end(rate: float) -> int:
    """The number of support points: the weight's e^-20 fall from xmin, clamped."""
    return min(DEFAULT_SUPPORT_MAX, max(1000, int(20 / max(rate, 1e-6))))


@functools.lru_cache(maxsize=1)  # one 8 MB array; each test uses one xmin
def _support(xmin: int) -> np.ndarray:
    return np.arange(xmin, xmin + DEFAULT_SUPPORT_MAX, dtype=float)


def cutoff_reference_log_normaliser(alpha: float, rate: float, xmin: int) -> float:
    """log of the weights summed term by term over the whole support."""
    ks = _support(xmin)[: _cutoff_support_end(rate)]
    log_weights = -alpha * np.log(ks) - rate * ks
    peak = float(np.max(log_weights))
    return peak + math.log(float(np.sum(np.exp(log_weights - peak))))


@pytest.mark.parametrize("xmin", [1, 2, 5])
def test_cutoff_normaliser_matches_the_full_support_sum_over_the_grid(xmin):
    # The grid holds supports capped at 10^6, supports with no tail, and
    # exponents within 1e-9 of 1 and 2, where the tail's incomplete gamma
    # function has a non-positive-integer shape nearby.
    ends = {_cutoff_support_end(rate) for rate in CUTOFF_RATES}
    assert DEFAULT_SUPPORT_MAX in ends and min(ends) < xmin + EXACT_HEAD
    for alpha in CUTOFF_ALPHAS:
        for rate in CUTOFF_RATES:
            expected = cutoff_reference_log_normaliser(alpha, rate, xmin)
            actual = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)._log_normaliser()
            _assert_normaliser_close(actual, expected, (alpha, rate, xmin))


def test_cutoff_normaliser_without_a_rate_sums_the_capped_support():
    expected = cutoff_reference_log_normaliser(1.5, 0.0, 1)
    assert PowerLawWithCutoff(alpha=1.5, cutoff_rate=0.0)._log_normaliser() == expected


# ----------------------------------------------------------------------
# Power law and cutoff: scipy's optimum of the per-sample objective
# ----------------------------------------------------------------------
OPTIMUM_SAMPLES = {
    "power law 2.2": (lambda rng: PowerLaw(alpha=2.2).sample(3000, rng), 1),
    "power law 1.6, xmin 3": (lambda rng: PowerLaw(alpha=1.6, xmin=3).sample(3000, rng), 3),
    "power law 3.5, xmin 10": (lambda rng: PowerLaw(alpha=3.5, xmin=10).sample(3000, rng), 10),
    "cutoff 1.8, 0.02": (lambda rng: PowerLawWithCutoff(1.8, 0.02).sample(4000, rng), 1),
    "cutoff 1.5, 0.005": (lambda rng: PowerLawWithCutoff(1.5, 0.005).sample(4000, rng), 1),
    "lognormal 1.0, 1.5": (lambda rng: DiscreteLognormal(1.0, 1.5).sample(2000, rng), 1),
    "geometric": (lambda rng: rng.geometric(p=0.3, size=3000), 1),
    "nearly all at xmin": (lambda rng: np.array([1] * 40 + [2] * 5 + [3]), 1),
}


def _counts(name):
    draw, xmin = OPTIMUM_SAMPLES[name]
    values, counts = np.unique(draw(np.random.default_rng(7)), return_counts=True)
    keep = values >= xmin
    return values[keep].astype(float), counts[keep], xmin


@pytest.mark.parametrize("name", sorted(OPTIMUM_SAMPLES))
def test_power_law_fit_reaches_the_oracle_optimum(name):
    values, counts, xmin = _counts(name)
    log_sum, n = float(counts @ np.log(values)), int(counts.sum())

    def negative_log_likelihood(alpha: float) -> float:
        return alpha * log_sum + n * math.log(float(zeta(alpha, xmin)))

    oracle = minimize_scalar(
        negative_log_likelihood, bounds=ALPHA_RANGE, method="bounded", options={"xatol": 1e-10}
    )
    oracle_value = min(oracle.fun, *(negative_log_likelihood(a) for a in ALPHA_RANGE))
    fit = fit_power_law(np.repeat(values, counts).astype(int), xmin=xmin)
    assert -fit.log_likelihood <= oracle_value + 1e-6 * n, (fit.distribution, oracle.x)
    assert -fit.log_likelihood == pytest.approx(
        negative_log_likelihood(fit.distribution.alpha), rel=1e-10
    )
    assert ALPHA_RANGE[0] <= fit.distribution.alpha <= ALPHA_RANGE[1]


@pytest.mark.parametrize("name", sorted(set(OPTIMUM_SAMPLES) - {"power law 1.6, xmin 3"}))
def test_cutoff_fit_reaches_the_oracle_optimum(name):
    values, counts, xmin = _counts(name)
    log_values, n = np.log(values), int(counts.sum())

    def negative_log_likelihood(parameters) -> float:
        alpha, log_rate = parameters
        rate = 10.0 ** log_rate
        return -float(counts @ (-alpha * log_values - rate * values)) + n * (
            cutoff_reference_log_normaliser(alpha, rate, xmin)
        )

    # L-BFGS-B over (alpha, log10 lambda) from two starts, then a Nelder-Mead polish.
    bounds = [
        (CUTOFF_MIN[0], CUTOFF_MAX[0]),
        (math.log10(CUTOFF_MIN[1]), math.log10(CUTOFF_MAX[1])),
    ]
    results = [
        minimize(negative_log_likelihood, start, method="L-BFGS-B", bounds=bounds)
        for start in ((2.0, -2.0), (1.5, -5.0))
    ]
    best = min(results, key=lambda result: result.fun)
    results.append(
        minimize(
            negative_log_likelihood,
            best.x,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": 2000},
        )
    )
    oracle = min(results, key=lambda result: result.fun)
    fit = fit_power_law_with_cutoff(np.repeat(values, counts).astype(int), xmin=xmin)
    alpha, rate = fit.distribution.alpha, fit.distribution.cutoff_rate
    assert -fit.log_likelihood <= oracle.fun + 1e-6 * n, (fit.distribution, oracle.x)
    assert -fit.log_likelihood == pytest.approx(
        negative_log_likelihood((alpha, math.log10(rate))), rel=1e-10
    )
    assert alpha >= CUTOFF_MIN[0] * (1 - 1e-12) and rate >= CUTOFF_MIN[1] * (1 - 1e-12)
    assert alpha <= CUTOFF_MAX[0] * (1 + 1e-12) and rate <= CUTOFF_MAX[1] * (1 + 1e-12)


# ----------------------------------------------------------------------
# Exponential: the closed form is the argmax
# ----------------------------------------------------------------------
EXPONENTIAL_SAMPLES = {
    "geometric": (np.random.default_rng(3).geometric(p=0.3, size=5000), 1),
    "shifted": (DiscreteExponential(rate=0.05, xmin=4).sample(3000, np.random.default_rng(5)), 4),
    "nearly all at xmin": (np.array([1] * 99 + [2]), 1),
    "all at xmin": (np.full(50, 3), 3),
}


@pytest.mark.parametrize("name", sorted(EXPONENTIAL_SAMPLES))
def test_exponential_fit_is_the_log_likelihood_argmax_on_a_fine_grid(name):
    data, xmin = EXPONENTIAL_SAMPLES[name]
    fit = fit_exponential(data, xmin=xmin)
    # The search interval the fit is confined to.
    rate_hat = math.log(1 + 1 / (float(np.mean(data)) - xmin + 1))
    grid = np.linspace(max(1e-6, rate_hat * 0.2), rate_hat * 5 + 1e-3, 4001)
    values, counts = np.unique(data, return_counts=True)
    log_likelihoods = np.array(
        [float(counts @ DiscreteExponential(rate=rate, xmin=xmin).log_pmf(values)) for rate in grid]
    )
    best = int(np.argmax(log_likelihoods))
    assert abs(fit.distribution.rate - grid[best]) <= grid[1] - grid[0], name
    assert fit.log_likelihood >= log_likelihoods[best] - 1e-9 * abs(log_likelihoods[best]), name
    fitted = DiscreteExponential(rate=fit.distribution.rate, xmin=xmin)
    assert fit.log_likelihood == pytest.approx(float(np.sum(fitted.log_pmf(data))), rel=1e-12), name


# ----------------------------------------------------------------------
# Known-parameter recovery from each family's own sample()
# ----------------------------------------------------------------------
RECOVERY_SAMPLES = 4000


def _sample(distribution) -> np.ndarray:
    return distribution.sample(RECOVERY_SAMPLES, np.random.default_rng(2012))


@pytest.mark.parametrize("xmin", [1, 3, 10])
@pytest.mark.parametrize("alpha", [1.8, 2.2, 2.6, 3.2, 3.5])
def test_power_law_recovers_its_exponent(alpha, xmin):
    fit = fit_power_law(_sample(PowerLaw(alpha=alpha, xmin=xmin)), xmin=xmin)
    assert fit.distribution.alpha == pytest.approx(alpha, abs=0.1)


@pytest.mark.parametrize("sigma", [0.5, 0.8, 1.1])
@pytest.mark.parametrize("mu", [2.0, 3.0, 4.0])
def test_lognormal_recovers_its_parameters(mu, sigma):
    fit = fit_lognormal(_sample(DiscreteLognormal(mu=mu, sigma=sigma)))
    assert fit.distribution.mu == pytest.approx(mu, abs=0.05)
    assert fit.distribution.sigma == pytest.approx(sigma, abs=0.05)


def test_lognormal_recovers_heavy_tailed_parameters():
    # At sigma 1.5 a quarter of the mass sits on k = 1, where rounding
    # continuous draws would put 35%.
    fit = fit_lognormal(_sample(DiscreteLognormal(mu=1.0, sigma=1.5)))
    assert fit.distribution.mu == pytest.approx(1.0, abs=0.05)
    assert fit.distribution.sigma == pytest.approx(1.5, abs=0.05)


@pytest.mark.parametrize("xmin", [1, 2, 10])
@pytest.mark.parametrize("rate", [0.05, 0.3, 1.0])
def test_exponential_recovers_its_rate(rate, xmin):
    fit = fit_exponential(_sample(DiscreteExponential(rate=rate, xmin=xmin)), xmin=xmin)
    assert fit.distribution.rate == pytest.approx(rate, rel=0.08)


@pytest.mark.parametrize("rate", [0.005, 0.02, 0.1])
@pytest.mark.parametrize("alpha", [1.5, 1.8, 2.1])
def test_cutoff_recovers_its_distribution(alpha, rate):
    # The joint optimum scores at least the true parameters on every point
    # of this grid; a coordinate-wise search along the correlated (alpha,
    # lambda) ridge ends 0.0004-0.0027 nats per sample below them, with
    # exponents up to 0.33 low and cutoffs up to 4.3x fast.
    truth = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate)
    data = _sample(truth)
    fit = fit_power_law_with_cutoff(data)
    assert fit.distribution.alpha == pytest.approx(alpha, abs=0.1)
    assert 0.5 * rate <= fit.distribution.cutoff_rate <= 3 * rate
    true_log_likelihood = float(np.sum(truth.log_pmf(data)))
    assert fit.log_likelihood >= true_log_likelihood
    assert fit.log_likelihood - true_log_likelihood <= 0.005 * data.size

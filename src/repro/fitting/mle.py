"""Maximum-likelihood fits for the candidate degree distributions.

Each ``fit_*`` function takes an integer sample (degrees >= xmin are used, the
rest discarded) and returns the fitted distribution object together with its
log-likelihood so the model-selection layer can compare candidates.

Every negative log-likelihood depends on the sample only through a few
sufficient statistics: the count n, the sum of ``ln k``, and the sum of ``k``
(the lognormal also takes the spread of ``ln k`` about its mean).  They are
computed once per fit, so each golden-section iterate costs one normaliser
evaluation (see :mod:`repro.fitting.distributions`), not a pass over the
sample.  The exponential family needs no search: its maximum is the
closed-form geometric estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .distributions import (
    DiscreteExponential,
    DiscreteLognormal,
    PowerLaw,
    PowerLawWithCutoff,
)


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution plus the log-likelihood it achieves on the data."""

    distribution: object
    log_likelihood: float
    num_samples: int

    @property
    def name(self) -> str:
        return self.distribution.name

    def parameters(self) -> Dict[str, float]:
        return self.distribution.parameters()

    @property
    def aic(self) -> float:
        """Akaike information criterion (2k - 2 lnL) with k free parameters."""
        num_parameters = len(self.distribution.parameters()) - 1  # xmin is fixed
        return 2 * num_parameters - 2 * self.log_likelihood


def _clean(values: Sequence[int], xmin: int) -> np.ndarray:
    data = np.asarray(values)
    data = data[data >= xmin].astype(int)
    if data.size == 0:
        raise ValueError(f"no samples >= xmin={xmin}")
    return data


def fit_power_law(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE power-law exponent via the discrete Clauset-Shalizi-Newman estimator.

    Uses the standard approximation ``alpha = 1 + n / sum(ln(k / (xmin - 0.5)))``
    followed by a golden-section refinement of the exact discrete likelihood.
    """
    data = _clean(values, xmin)
    log_sum = float(np.sum(np.log(data)))
    negative_log_likelihood = _power_law_objective(data.size, log_sum, xmin)
    alpha_best = _power_law_alpha(data, negative_log_likelihood, xmin)
    return FitResult(
        PowerLaw(alpha=alpha_best, xmin=xmin),
        -negative_log_likelihood(alpha_best),
        data.size,
    )


def _power_law_objective(count: int, log_sum: float, xmin: int) -> Callable[[float], float]:
    """``alpha -> -ln L`` of a power law: ``alpha * sum ln k + n ln zeta(alpha, xmin)``."""

    def negative_log_likelihood(alpha: float) -> float:
        return alpha * log_sum + count * math.log(PowerLaw(alpha=alpha, xmin=xmin)._normaliser())

    return negative_log_likelihood


def _power_law_alpha(
    data: np.ndarray, negative_log_likelihood: Callable[[float], float], xmin: int
) -> float:
    """The golden-section exponent, searched 0.75 either side of the CSN estimate.

    The CSN estimate is poor at small ``xmin`` (at ``xmin = 1`` and alpha =
    3.2 it is about 2.2), so the optimum can lie outside that bracket.  A
    search that ends on an edge other than the hard limits 1.01 and 6.0
    searches again from that edge, one bracket width further, until the
    optimum is interior.
    """
    total = float(np.sum(np.log(data / (xmin - 0.5))))
    if total <= 0:
        alpha_hat = 3.5
    else:
        alpha_hat = 1.0 + data.size / total
    alpha_hat = min(max(alpha_hat, 1.01), 6.0)
    low, high = max(1.01, alpha_hat - 0.75), min(6.0, alpha_hat + 0.75)
    alpha = _golden_section(negative_log_likelihood, low, high)
    upward = high - alpha < _TOLERANCE
    while upward and high < 6.0 and high - alpha < _TOLERANCE:
        low, high = high, min(6.0, high + 1.5)
        alpha = _golden_section(negative_log_likelihood, low, high)
    while not upward and low > 1.01 and alpha - low < _TOLERANCE:
        low, high = max(1.01, low - 1.5), low
        alpha = _golden_section(negative_log_likelihood, low, high)
    return alpha


def fit_lognormal(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the discrete lognormal (mu, sigma).

    Initialised at the moments of ``ln k`` and refined by coordinate-wise
    golden-section search on the exact discrete likelihood.  The likelihood
    depends on the sample only through n, the sum of ``ln k`` and the spread
    of ``ln k`` about its mean, so each iterate costs one normaliser.
    """
    data = _clean(values, xmin)
    logs = np.log(data)
    mu_hat = float(np.mean(logs))
    sigma_hat = float(np.std(logs))
    sigma_hat = max(sigma_hat, 0.05)
    count = data.size
    log_sum = float(np.sum(logs))
    spread = float(np.sum((logs - mu_hat) ** 2))

    def negative_log_likelihood(mu: float, sigma: float) -> float:
        # -sum(log_pmf) = sum ln k + sum (ln k - mu)^2 / (2 sigma^2) + n ln Z.
        dist = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin)
        squares = spread + count * (mu_hat - mu) ** 2
        return log_sum + squares / (2 * sigma ** 2) + count * dist._log_normaliser()

    mu_best, sigma_best = mu_hat, sigma_hat
    for _ in range(3):
        mu_best = _golden_section(
            lambda m: negative_log_likelihood(m, sigma_best),
            mu_best - 1.5,
            mu_best + 1.5,
        )
        sigma_best = _golden_section(
            lambda s: negative_log_likelihood(mu_best, s),
            max(0.05, sigma_best * 0.4),
            sigma_best * 2.5 + 0.1,
        )
    distribution = DiscreteLognormal(mu=mu_best, sigma=sigma_best, xmin=xmin)
    return FitResult(distribution, -negative_log_likelihood(mu_best, sigma_best), count)


def fit_power_law_with_cutoff(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the power law with exponential cutoff (alpha, lambda).

    The search starts from the pure power law's exponent, which is computed
    from the same sufficient statistics.
    """
    data = _clean(values, xmin)
    count = data.size
    log_sum = float(np.sum(np.log(data)))
    value_sum = float(np.sum(data))
    initial_alpha = _power_law_alpha(data, _power_law_objective(count, log_sum, xmin), xmin)
    initial_rate = 1.0 / max(value_sum / count, 1.0)

    def negative_log_likelihood(alpha: float, rate: float) -> float:
        # -sum(log_pmf) = alpha sum ln k + lambda sum k + n ln Z.
        dist = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
        return alpha * log_sum + rate * value_sum + count * dist._log_normaliser()

    alpha_best, rate_best = initial_alpha, initial_rate
    for _ in range(5):
        alpha_best = _golden_section(
            lambda a: negative_log_likelihood(a, rate_best),
            max(0.05, alpha_best - 1.0),
            alpha_best + 1.0,
        )
        rate_best = _golden_section(
            lambda r: negative_log_likelihood(alpha_best, r),
            1e-7,
            rate_best * 10 + 1e-4,
        )
    # The pure power law is the rate -> 0 limit; never report a worse fit than it.
    scored = [
        (negative_log_likelihood(*pair), pair)
        for pair in ((alpha_best, rate_best), (initial_alpha, 1e-7))
    ]
    best_value, (alpha, rate) = min(scored, key=lambda item: item[0])
    distribution = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
    return FitResult(distribution, -best_value, count)


def fit_exponential(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the discrete exponential distribution.

    ``k - xmin`` is geometric with ratio ``e^-lambda``, so the likelihood peaks
    at ``lambda = ln(1 + 1 / (mean - xmin))``, unboundedly when every value is
    ``xmin``.  The estimate is clipped to ``[max(1e-6, r / 5), 5 r + 0.001]``
    around ``r = ln(1 + 1 / (mean - xmin + 1))``; the likelihood is concave in
    lambda, so the clipped value is the maximum over that interval.
    """
    data = _clean(values, xmin)
    count = data.size
    mean = float(np.sum(data)) / count
    rate_hat = math.log(1 + 1 / (mean - xmin + 1.0))
    low, high = max(1e-6, rate_hat * 0.2), rate_hat * 5 + 1e-3
    rate = math.log1p(1 / (mean - xmin)) if mean > xmin else high
    rate = min(max(rate, low), high)
    # -sum(log_pmf) = n [lambda (mean - xmin) - ln(1 - e^-lambda)].
    log_likelihood = -count * (rate * (mean - xmin) - math.log1p(-math.exp(-rate)))
    return FitResult(DiscreteExponential(rate=rate, xmin=xmin), log_likelihood, count)


def fit_lognormal_parameters_over_time(
    degree_sequences: Sequence[Tuple[int, Sequence[int]]], xmin: int = 1
) -> List[Tuple[int, float, float]]:
    """Fit a lognormal per snapshot, returning ``(day, mu, sigma)`` (Figures 6 / 11a)."""
    series = []
    for day, degrees in degree_sequences:
        positive = [d for d in degrees if d >= xmin]
        if len(positive) < 10:
            continue
        fit = fit_lognormal(positive, xmin=xmin)
        series.append((day, fit.distribution.mu, fit.distribution.sigma))
    return series


def fit_power_law_exponent_over_time(
    degree_sequences: Sequence[Tuple[int, Sequence[int]]], xmin: int = 1
) -> List[Tuple[int, float]]:
    """Fit a power law per snapshot, returning ``(day, alpha)`` (Figure 11b)."""
    series = []
    for day, degrees in degree_sequences:
        positive = [d for d in degrees if d >= xmin]
        if len(positive) < 10:
            continue
        fit = fit_power_law(positive, xmin=xmin)
        series.append((day, fit.distribution.alpha))
    return series


#: Width of the interval at which a golden-section search stops.
_TOLERANCE = 1e-4


def _golden_section(
    objective, low: float, high: float, tolerance: float = _TOLERANCE
) -> float:
    """Minimise a unimodal 1-D objective on [low, high] by golden-section search."""
    if high <= low:
        return low
    inverse_phi = (math.sqrt(5) - 1) / 2
    left = high - inverse_phi * (high - low)
    right = low + inverse_phi * (high - low)
    value_left = objective(left)
    value_right = objective(right)
    for _ in range(200):
        if high - low < tolerance:
            break
        if value_left < value_right:
            high, right, value_right = right, left, value_left
            left = high - inverse_phi * (high - low)
            value_left = objective(left)
        else:
            low, left, value_left = left, right, value_right
            right = low + inverse_phi * (high - low)
            value_right = objective(right)
    return (low + high) / 2

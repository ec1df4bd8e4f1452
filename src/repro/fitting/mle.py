"""Maximum-likelihood fits for the candidate degree distributions.

Each ``fit_*`` function takes an integer sample (degrees >= xmin are used, the
rest discarded) and returns the fitted distribution object together with its
log-likelihood so the model-selection layer can compare candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    data = np.asarray([int(v) for v in values if v >= xmin], dtype=int)
    if data.size == 0:
        raise ValueError(f"no samples >= xmin={xmin}")
    return data


def fit_power_law(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE power-law exponent via the discrete Clauset-Shalizi-Newman estimator.

    Uses the standard approximation ``alpha = 1 + n / sum(ln(k / (xmin - 0.5)))``
    followed by a golden-section refinement of the exact discrete likelihood.
    """
    data = _clean(values, xmin)
    shifted = np.log(data / (xmin - 0.5))
    total = float(np.sum(shifted))
    if total <= 0:
        alpha_hat = 3.5
    else:
        alpha_hat = 1.0 + data.size / total
    alpha_hat = min(max(alpha_hat, 1.01), 6.0)

    def negative_log_likelihood(alpha: float) -> float:
        dist = PowerLaw(alpha=alpha, xmin=xmin)
        return -float(np.sum(dist.log_pmf(data)))

    alpha_best = _golden_section(
        negative_log_likelihood, max(1.01, alpha_hat - 0.75), min(6.0, alpha_hat + 0.75)
    )
    distribution = PowerLaw(alpha=alpha_best, xmin=xmin)
    log_likelihood = float(np.sum(distribution.log_pmf(data)))
    return FitResult(distribution, log_likelihood, data.size)


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
    log_likelihood = float(np.sum(distribution.log_pmf(data)))
    return FitResult(distribution, log_likelihood, data.size)


def fit_power_law_with_cutoff(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the power law with exponential cutoff (alpha, lambda)."""
    data = _clean(values, xmin)
    initial_alpha = fit_power_law(data, xmin=xmin).distribution.alpha
    initial_rate = 1.0 / max(float(np.mean(data)), 1.0)

    def negative_log_likelihood(alpha: float, rate: float) -> float:
        dist = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
        return -float(np.sum(dist.log_pmf(data)))

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
    candidates = [(alpha_best, rate_best), (initial_alpha, 1e-7)]
    best = min(candidates, key=lambda pair: negative_log_likelihood(*pair))
    distribution = PowerLawWithCutoff(alpha=best[0], cutoff_rate=best[1], xmin=xmin)
    log_likelihood = float(np.sum(distribution.log_pmf(data)))
    return FitResult(distribution, log_likelihood, data.size)


def fit_exponential(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the discrete exponential distribution."""
    data = _clean(values, xmin)
    mean_excess = float(np.mean(data)) - xmin + 1.0
    rate_hat = math.log(1 + 1 / max(mean_excess, 1e-9))

    def negative_log_likelihood(rate: float) -> float:
        dist = DiscreteExponential(rate=rate, xmin=xmin)
        return -float(np.sum(dist.log_pmf(data)))

    rate_best = _golden_section(
        negative_log_likelihood, max(1e-6, rate_hat * 0.2), rate_hat * 5 + 1e-3
    )
    distribution = DiscreteExponential(rate=rate_best, xmin=xmin)
    log_likelihood = float(np.sum(distribution.log_pmf(data)))
    return FitResult(distribution, log_likelihood, data.size)


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


def _golden_section(objective, low: float, high: float, tolerance: float = 1e-4) -> float:
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

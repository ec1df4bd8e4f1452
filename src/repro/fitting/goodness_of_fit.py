"""Goodness-of-fit and model-comparison statistics.

Provides the Kolmogorov-Smirnov distance between an empirical sample and a
fitted discrete distribution, and the Vuong-corrected log-likelihood-ratio
test used to compare two candidate distributions on the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def empirical_cdf(values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Support points and empirical CDF values for an integer sample."""
    data = np.sort(np.asarray(values, dtype=float))
    unique, counts = np.unique(data, return_counts=True)
    cumulative = np.cumsum(counts) / data.size
    return unique, cumulative


def ks_statistic(values: Sequence[int], distribution) -> float:
    """Kolmogorov-Smirnov distance between the sample and a fitted distribution.

    The model CDF is evaluated by summing the pmf from ``xmin`` to the largest
    observed value, which is exact for the discrete families in this package.
    """
    data = np.asarray([int(v) for v in values if v >= distribution.xmin], dtype=int)
    if data.size == 0:
        raise ValueError("no samples at or above the distribution's xmin")
    support_points, empirical = empirical_cdf(data)
    max_value = int(support_points[-1])
    ks = np.arange(distribution.xmin, max_value + 1)
    model_pmf = distribution.pmf(ks)
    model_cdf = np.cumsum(model_pmf)
    model_at_points = model_cdf[(support_points - distribution.xmin).astype(int)]
    return float(np.max(np.abs(empirical - model_at_points)))


@dataclass(frozen=True)
class LikelihoodRatioResult:
    """Result of a Vuong log-likelihood-ratio comparison between two fits.

    ``ratio > 0`` favours the first distribution.  ``p_value`` is the two-sided
    significance of the normalised ratio; a large p-value means the data cannot
    distinguish the two candidates.
    """

    ratio: float
    normalised_ratio: float
    p_value: float

    @property
    def favours_first(self) -> bool:
        return self.ratio > 0


def likelihood_ratio_test(
    values: Sequence[int], first_distribution, second_distribution
) -> LikelihoodRatioResult:
    """Vuong-corrected log-likelihood ratio test between two fitted distributions."""
    xmin = max(first_distribution.xmin, second_distribution.xmin)
    data = np.asarray([int(v) for v in values if v >= xmin], dtype=int)
    if data.size == 0:
        raise ValueError("no samples above both xmins")
    first_ll = first_distribution.log_pmf(data)
    second_ll = second_distribution.log_pmf(data)
    pointwise = first_ll - second_ll
    ratio = float(np.sum(pointwise))
    n = data.size
    variance = float(np.var(pointwise))
    if variance <= 0 or n < 2:
        return LikelihoodRatioResult(ratio=ratio, normalised_ratio=0.0, p_value=1.0)
    normalised = ratio / math.sqrt(n * variance)
    p_value = math.erfc(abs(normalised) / math.sqrt(2))
    return LikelihoodRatioResult(ratio=ratio, normalised_ratio=normalised, p_value=p_value)

"""Statistics helpers used by the measurement and fitting layers.

These are intentionally dependency-light (pure Python plus ``math``) so the
measurement pipeline does not require numpy for basic summaries; the fitting
package uses numpy where vectorisation matters.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


def two_sample_ks_statistic(
    first: Sequence[float], second: Sequence[float]
) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``sup_x |F1(x) - F2(x)|``.

    Tie-aware: both pointers advance past every sample equal to the current
    value before the CDF gap is measured, which matters for the discrete
    (degree) distributions this library compares — a naive merge inflates the
    statistic by reading the gap mid-tie.  Used by the generative-engine
    distributional-parity gate.
    """
    if len(first) == 0 or len(second) == 0:  # len(): accept numpy arrays too
        raise ValueError("two_sample_ks_statistic needs two non-empty samples")
    a = sorted(first)
    b = sorted(second)
    n, m = len(a), len(b)
    i = j = 0
    statistic = 0.0
    while i < n or j < m:
        if j >= m or (i < n and a[i] <= b[j]):
            value = a[i]
        else:
            value = b[j]
        while i < n and a[i] <= value:
            i += 1
        while j < m and b[j] <= value:
            j += 1
        statistic = max(statistic, abs(i / n - j / m))
    return statistic


def ks_two_sample_threshold(n: int, m: int, alpha: float = 0.001) -> float:
    """Rejection threshold for the two-sample KS test at level ``alpha``.

    ``c(alpha) * sqrt((n + m) / (n * m))`` with
    ``c(alpha) = sqrt(-ln(alpha / 2) / 2)`` — the classical large-sample
    approximation.  Samples from the same distribution exceed this with
    probability ``alpha``.
    """
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    c = math.sqrt(-0.5 * math.log(alpha / 2))
    return c * math.sqrt((n + m) / (n * m))


def log_binned_histogram(
    values: Iterable[int], bins_per_decade: int = 10
) -> List[Tuple[float, float]]:
    """Log-binned probability density of positive integer samples.

    Used to draw degree distributions on log-log axes without the noise of raw
    counts in the tail.  Returns ``(bin_center, density)`` pairs where the
    densities integrate (sum over bin widths) to ~1.
    """
    positives = [value for value in values if value > 0]
    if not positives:
        return []
    total = len(positives)
    max_value = max(positives)
    num_bins = max(1, int(math.ceil(math.log10(max_value + 1) * bins_per_decade)))
    edges = [10 ** (index / bins_per_decade) for index in range(num_bins + 1)]
    counts = [0] * num_bins
    for value in positives:
        position = math.log10(value) * bins_per_decade
        bin_index = min(int(position), num_bins - 1)
        counts[bin_index] += 1
    points = []
    for bin_index, count in enumerate(counts):
        if count == 0:
            continue
        low, high = edges[bin_index], edges[bin_index + 1]
        width = high - low
        center = math.sqrt(low * high)
        points.append((center, count / (total * width)))
    return points


def log_binned_average(
    pairs: Iterable[Tuple[float, float]], bins_per_decade: int = 10
) -> List[Tuple[float, float]]:
    """Average the second coordinate within logarithmic bins of the first.

    Used for knn-style plots (degree on the x axis, an average quantity on the
    y axis).  Pairs with non-positive x are ignored.
    """
    cleaned = [(x, y) for x, y in pairs if x > 0]
    if not cleaned:
        return []
    max_x = max(x for x, _ in cleaned)
    num_bins = max(1, int(math.ceil(math.log10(max_x + 1) * bins_per_decade)))
    sums = [0.0] * num_bins
    counts = [0] * num_bins
    for x, y in cleaned:
        position = math.log10(x) * bins_per_decade
        bin_index = min(int(position), num_bins - 1)
        sums[bin_index] += y
        counts[bin_index] += 1
    points = []
    for bin_index in range(num_bins):
        if counts[bin_index] == 0:
            continue
        low = 10 ** (bin_index / bins_per_decade)
        high = 10 ** ((bin_index + 1) / bins_per_decade)
        center = math.sqrt(low * high)
        points.append((center, sums[bin_index] / counts[bin_index]))
    return points

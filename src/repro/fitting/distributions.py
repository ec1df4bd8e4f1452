"""Discrete heavy-tailed distributions used to fit degree data.

The paper fits degree distributions against power-law, discrete lognormal and
power-law-with-cutoff candidates (using the Clauset-Shalizi-Newman framework)
and reports that Google+ social degrees are best modeled by a *discrete
lognormal* while the social degree of attribute nodes is best modeled by a
*power law*.  This module provides the candidate families: normalised pmfs on
``{xmin, xmin+1, ...}``, log-pmfs, sampling, and moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: Truncation point used to normalise discrete distributions numerically.  The
#: tail mass beyond this support is negligible for every fit the library runs.
DEFAULT_SUPPORT_MAX = 10 ** 6

#: Support points the discrete-lognormal normaliser sums term by term; the
#: rest of its support is added in closed form.
LOGNORMAL_EXACT_HEAD = 2048


@dataclass(frozen=True)
class PowerLaw:
    """Discrete power law ``p(k) ∝ k^(-alpha)`` for ``k >= xmin``."""

    alpha: float
    xmin: int = 1

    def _normaliser(self) -> float:
        # Hurwitz zeta via direct summation with an integral tail correction.
        ks = np.arange(self.xmin, 100000, dtype=float)
        head = np.sum(ks ** -self.alpha)
        if self.alpha > 1:
            tail = (100000.0 ** (1 - self.alpha)) / (self.alpha - 1)
        else:
            tail = 0.0
        return float(head + tail)

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return -self.alpha * np.log(values) - math.log(self._normaliser())

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator, table_size: int = 100000) -> np.ndarray:
        """Exact inverse-CDF sampling over a finite table, continuous tail beyond it.

        The head (``k <= table_size``) is sampled from the exact discrete CDF;
        the residual tail mass uses the standard continuous approximation,
        which is accurate there because the discreteness correction vanishes
        for large ``k``.
        """
        ks = np.arange(self.xmin, table_size + 1, dtype=float)
        pmf = ks ** -self.alpha
        pmf /= self._normaliser()
        cdf = np.cumsum(pmf)
        head_mass = float(cdf[-1])
        uniforms = rng.random(size)
        samples = np.empty(size, dtype=int)
        in_head = uniforms < head_mass
        samples[in_head] = self.xmin + np.searchsorted(cdf, uniforms[in_head])
        num_tail = int(np.sum(~in_head))
        if num_tail:
            tail_uniforms = rng.random(num_tail)
            continuous = (table_size + 0.5) * (1 - tail_uniforms) ** (-1 / (self.alpha - 1))
            samples[~in_head] = np.floor(continuous + 0.5).astype(int)
        return samples

    @property
    def name(self) -> str:
        return "power_law"

    def parameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha, "xmin": self.xmin}


@dataclass(frozen=True)
class DiscreteLognormal:
    """Discrete lognormal ``p(k) ∝ (1/k) exp(-(ln k - mu)^2 / (2 sigma^2))``.

    This is the DGX-style parameterisation the paper cites (Bi, Faloutsos,
    Korn) for ``k >= xmin``.
    """

    mu: float
    sigma: float
    xmin: int = 1

    def _log_weights_from_logs(self, logs: np.ndarray) -> np.ndarray:
        return -logs - (logs - self.mu) ** 2 / (2 * self.sigma ** 2)

    def _log_weights(self, values: np.ndarray) -> np.ndarray:
        return self._log_weights_from_logs(np.log(values))

    def _log_normaliser(self, support_max: int = DEFAULT_SUPPORT_MAX) -> float:
        # The support runs to a generous cutoff, but only its first
        # LOGNORMAL_EXACT_HEAD points are summed term by term.  The rest is
        # Euler-Maclaurin: the integral of the weight, the two endpoint
        # halves, and the first-derivative correction.  The next correction
        # (third derivative) is negligible while the weight spans many
        # integers, sigma * k >= 50 over the tail.  Narrower weights, and
        # supports capped below the median e^mu, are summed whole.
        cutoff = min(support_max, max(1000, int(math.exp(self.mu + 8 * self.sigma))))
        split = min(cutoff, self.xmin + LOGNORMAL_EXACT_HEAD - 1)
        if self.sigma * split < 50 or math.log(cutoff) < self.mu:
            split = cutoff
        logs = np.log(np.arange(self.xmin, split + 1, dtype=float))
        log_weights = self._log_weights_from_logs(logs)
        peak = float(np.max(log_weights))
        head = float(np.sum(np.exp(log_weights - peak)))
        if split == cutoff:
            return peak + math.log(head)
        first, last = split + 1, cutoff
        log_first, log_last = math.log(first), math.log(last)
        # In t = ln k the integral is Gaussian; differencing erfc of the upper
        # (or the mirrored lower) tails avoids cancellation.
        scale = self.sigma * math.sqrt(2)
        z_first, z_last = (log_first - self.mu) / scale, (log_last - self.mu) / scale
        if z_first > 0:
            mass = math.erfc(z_first) - math.erfc(z_last)
        else:
            mass = math.erfc(-z_last) - math.erfc(-z_first)
        log_integral = (
            math.log(self.sigma * math.sqrt(math.pi / 2) * mass) if mass > 0 else -math.inf
        )
        weight_first = self._log_weights_from_logs(log_first)
        weight_last = self._log_weights_from_logs(log_last)
        # Rescale every term by the largest, as the head is, so none overflows.
        ref = max(peak, log_integral, weight_first, weight_last)
        f_first, f_last = math.exp(weight_first - ref), math.exp(weight_last - ref)
        # f'(k) = f(k) * slope(k), the derivative of the log weight.
        slope_first = -(1 + (log_first - self.mu) / self.sigma ** 2) / first
        slope_last = -(1 + (log_last - self.mu) / self.sigma ** 2) / last
        tail = (
            math.exp(log_integral - ref)
            + (f_first + f_last) / 2
            + (f_last * slope_last - f_first * slope_first) / 12
        )
        return ref + math.log(head * math.exp(peak - ref) + tail)

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return self._log_weights(values) - self._log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Sample by rounding continuous lognormal draws, rejecting below xmin."""
        result = np.empty(size, dtype=int)
        filled = 0
        while filled < size:
            draws = rng.lognormal(self.mu, self.sigma, size=size - filled)
            discrete = np.maximum(1, np.round(draws)).astype(int)
            accepted = discrete[discrete >= self.xmin]
            count = min(len(accepted), size - filled)
            result[filled : filled + count] = accepted[:count]
            filled += count
        return result

    @property
    def name(self) -> str:
        return "lognormal"

    def parameters(self) -> Dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "xmin": self.xmin}


@dataclass(frozen=True)
class PowerLawWithCutoff:
    """Power law with exponential cutoff ``p(k) ∝ k^(-alpha) e^(-lambda k)``."""

    alpha: float
    cutoff_rate: float
    xmin: int = 1

    def _log_weights(self, values: np.ndarray) -> np.ndarray:
        return -self.alpha * np.log(values) - self.cutoff_rate * values

    def _log_normaliser(self) -> float:
        cutoff = max(1000, int(20 / max(self.cutoff_rate, 1e-6)))
        cutoff = min(cutoff, DEFAULT_SUPPORT_MAX)
        ks = np.arange(self.xmin, cutoff + 1, dtype=float)
        log_weights = self._log_weights(ks)
        peak = float(np.max(log_weights))
        return peak + math.log(float(np.sum(np.exp(log_weights - peak))))

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return self._log_weights(values) - self._log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample from the pure power law with acceptance e^(-lambda k)."""
        base = PowerLaw(alpha=self.alpha, xmin=self.xmin)
        result = np.empty(size, dtype=int)
        filled = 0
        while filled < size:
            candidates = base.sample(size - filled, rng)
            accept = rng.random(len(candidates)) < np.exp(
                -self.cutoff_rate * (candidates - self.xmin)
            )
            accepted = candidates[accept]
            count = min(len(accepted), size - filled)
            result[filled : filled + count] = accepted[:count]
            filled += count
        return result

    @property
    def name(self) -> str:
        return "power_law_with_cutoff"

    def parameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha, "cutoff_rate": self.cutoff_rate, "xmin": self.xmin}


@dataclass(frozen=True)
class DiscreteExponential:
    """Geometric-style exponential ``p(k) ∝ e^(-lambda k)`` for ``k >= xmin``."""

    rate: float
    xmin: int = 1

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        # Geometric series normaliser: sum_{k>=xmin} e^(-rate k)
        log_norm = -self.rate * self.xmin - math.log1p(-math.exp(-self.rate))
        return -self.rate * values - log_norm

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        geometric = rng.geometric(p=1 - math.exp(-self.rate), size=size)
        return geometric + self.xmin - 1

    @property
    def name(self) -> str:
        return "exponential"

    def parameters(self) -> Dict[str, float]:
        return {"rate": self.rate, "xmin": self.xmin}


def truncated_normal_mean_variance(mu: float, sigma: float) -> tuple:
    """Mean and variance of a normal truncated to ``[0, inf)``.

    Used by Theorem 1: with ``gamma = -mu/sigma``, ``g(gamma) = phi / (1-Phi)``
    and ``delta = g (g - gamma)``, the truncated mean is ``mu + sigma g`` and
    the variance ``sigma^2 (1 - delta)``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    gamma = -mu / sigma
    phi = math.exp(-gamma * gamma / 2) / math.sqrt(2 * math.pi)
    capital_phi = 0.5 * (1 + math.erf(gamma / math.sqrt(2)))
    survival = 1 - capital_phi
    if survival <= 0:
        return mu, sigma ** 2
    g = phi / survival
    delta = g * (g - gamma)
    return mu + sigma * g, sigma ** 2 * (1 - delta)

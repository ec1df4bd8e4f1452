"""Discrete heavy-tailed distributions used to fit degree data.

The paper fits degree distributions against power-law, discrete lognormal and
power-law-with-cutoff candidates (using the Clauset-Shalizi-Newman framework)
and reports that Google+ social degrees are best modeled by a *discrete
lognormal* while the social degree of attribute nodes is best modeled by a
*power law*.  This module provides the candidate families: normalised pmfs on
``{xmin, xmin+1, ...}``, log-pmfs, sampling, and moments.

The normalisers are what the maximum-likelihood fits evaluate on every
iterate, so none of them sums a long support term by term.  The power law's
is the Hurwitz zeta function ``zeta(alpha, xmin)`` from ``scipy.special``
(loaded lazily through :func:`repro.engine.deps.scipy_special`).  The
lognormal and cutoff normalisers sum their first :data:`EXACT_HEAD` support
points exactly and add the rest of their support by Euler-Maclaurin, whose
integral is closed-form: Gaussian (``erfc``) for the lognormal and an upper
incomplete gamma function for the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..engine.deps import scipy_special

#: Truncation point used to normalise discrete distributions numerically.  The
#: tail mass beyond this support is negligible for every fit the library runs.
DEFAULT_SUPPORT_MAX = 10 ** 6

#: Support points the lognormal and cutoff normalisers sum term by term; the
#: rest of their support is added in closed form.
EXACT_HEAD = 2048

#: Largest value :meth:`PowerLaw.sample` returns.  Its continuous tail
#: ``(1 - u)^(-1/(alpha - 1))`` passes the int64 range for alpha near 1
#: (measured: 29 of 200,000 draws at alpha = 1.2), where the cast to int is
#: invalid; capping first keeps every sample a valid integer >= xmin.
SAMPLE_CAP = 2 ** 62


@dataclass(frozen=True)
class PowerLaw:
    """Discrete power law ``p(k) ∝ k^(-alpha)`` for ``k >= xmin``."""

    alpha: float
    xmin: int = 1

    def _normaliser(self) -> float:
        # The Hurwitz zeta function zeta(alpha, xmin).  The series diverges
        # for alpha <= 1, where a sum truncated at 10^5 terms stands in.
        if self.alpha > 1:
            return float(scipy_special().zeta(self.alpha, self.xmin))
        ks = np.arange(self.xmin, 100000, dtype=float)
        return float(np.sum(ks ** -self.alpha))

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
        for large ``k``.  Tail draws are capped at :data:`SAMPLE_CAP`
        (``2**62``) so that heavy tails (alpha near 1) stay inside int64.
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
            with np.errstate(over="ignore"):  # inf is capped below
                continuous = (table_size + 0.5) * (1 - tail_uniforms) ** (
                    -1 / (self.alpha - 1)
                )
            samples[~in_head] = np.floor(np.minimum(continuous, SAMPLE_CAP) + 0.5).astype(int)
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
        # EXACT_HEAD points are summed term by term.  The rest is
        # Euler-Maclaurin: the integral of the weight, the two endpoint
        # halves, and the first-derivative correction.  The next correction
        # (third derivative) is negligible while the weight spans many
        # integers, sigma * k >= 50 over the tail.  Narrower weights, and
        # supports capped below the median e^mu, are summed whole.
        cutoff = min(support_max, max(1000, int(math.exp(self.mu + 8 * self.sigma))))
        split = min(cutoff, self.xmin + EXACT_HEAD - 1)
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
        # The support ends where e^(-lambda k) has fallen by e^-20, clamped
        # to [1000, DEFAULT_SUPPORT_MAX].  Its first EXACT_HEAD points are
        # summed term by term; the rest is Euler-Maclaurin: the integral, the
        # two endpoint halves and the first-derivative correction.  A tail
        # exists only for lambda < 20 / EXACT_HEAD, where the log weight's
        # slope alpha / k + lambda stays below 0.02 (alpha <= 20), so the next
        # correction, about slope^3 / 720 of f(first) <= head / 2048, is
        # below 1e-11 of the sum.  Without a cutoff (lambda = 0) the support
        # is summed whole.
        cutoff = max(1000, int(20 / max(self.cutoff_rate, 1e-6)))
        cutoff = min(cutoff, DEFAULT_SUPPORT_MAX)
        split = min(cutoff, self.xmin + EXACT_HEAD - 1)
        if self.cutoff_rate <= 0:
            split = cutoff
        log_weights = self._log_weights(np.arange(self.xmin, split + 1, dtype=float))
        peak = float(np.max(log_weights))
        head = float(np.sum(np.exp(log_weights - peak)))
        if split == cutoff:
            return peak + math.log(head)
        first, last = split + 1, cutoff
        alpha, rate = self.alpha, self.cutoff_rate
        # int_a^b k^-alpha e^(-lambda k) dk
        #   = lambda^(alpha - 1) [Gamma(1 - alpha, lambda a) - Gamma(1 - alpha, lambda b)].
        mass = _upper_gamma_difference(1 - alpha, rate * first, rate * last)
        integral = (
            math.exp((alpha - 1) * math.log(rate) + math.log(mass) - peak) if mass > 0 else 0.0
        )
        f_first = math.exp(float(self._log_weights(first)) - peak)
        f_last = math.exp(float(self._log_weights(last)) - peak)
        # f'(k) = f(k) * slope(k), the derivative of the log weight.
        slope_first = -alpha / first - rate
        slope_last = -alpha / last - rate
        tail = (
            integral
            + (f_first + f_last) / 2
            + (f_last * slope_last - f_first * slope_first) / 12
        )
        return peak + math.log(head + tail)

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return self._log_weights(values) - self._log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample from the pure power law with acceptance e^(-lambda k).

        Candidates come from :meth:`PowerLaw.sample`, so they share its
        :data:`SAMPLE_CAP`.
        """
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


#: Where :func:`_upper_gamma_difference` switches from the power series of
#: ``e^-t`` (below) to Legendre's continued fraction (above).
_GAMMA_PIVOT = 2.0


def _upper_gamma_difference(shape: float, low: float, high: float) -> float:
    """``Gamma(shape, low) - Gamma(shape, high)`` for ``0 < low <= high``, any real shape.

    That is ``int_low^high t^(shape - 1) e^-t dt``.  ``scipy.special`` has
    the upper incomplete gamma function for positive shapes only, and the
    recurrence that extends it below zero divides by the shape, losing every
    digit as the shape nears a non-positive integer (a cutoff exponent near
    1 or 2).  Both methods here hold full double precision at every shape.
    """
    pivot = _GAMMA_PIVOT
    below = _gamma_series_between(shape, low, min(high, pivot)) if low < pivot else 0.0
    above = (
        _upper_gamma_fraction(shape, max(low, pivot)) - _upper_gamma_fraction(shape, high)
        if high > pivot
        else 0.0
    )
    return below + above


def _upper_gamma_fraction(shape: float, x: float) -> float:
    """``Gamma(shape, x)`` by Legendre's continued fraction (modified Lentz), ``x >= 2``."""
    tiny = 1e-300
    b = x + 1 - shape
    c = 1 / tiny
    d = 1 / b
    fraction = d
    for i in range(1, 500):
        a = -i * (i - shape)
        b += 2
        d = a * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        delta = c * d
        fraction *= delta
        if abs(delta - 1) < 1e-16:
            return math.exp(shape * math.log(x) - x) * fraction
    raise FloatingPointError(f"Gamma({shape}, {x}): continued fraction did not converge")


def _gamma_series_between(shape: float, low: float, high: float) -> float:
    """``int_low^high t^(shape - 1) e^-t dt`` for ``high <= 2``, termwise in ``e^-t``.

    Term ``k`` is ``(-1)^k / k!`` times ``int_low^high t^(shape + k - 1) dt``,
    written with ``expm1`` so it stays exact as ``shape + k`` crosses zero.
    """
    log_ratio = math.log(high / low)
    total = 0.0
    sign_over_factorial = 1.0
    for k in range(200):
        power = shape + k
        piece = math.expm1(power * log_ratio) / power if power != 0 else log_ratio
        term = sign_over_factorial * low ** power * piece
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        sign_over_factorial /= -(k + 1)
    return total


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

"""Discrete heavy-tailed distributions used to fit degree data.

The paper fits degree distributions against power-law, discrete lognormal and
power-law-with-cutoff candidates (using the Clauset-Shalizi-Newman framework)
and reports that Google+ social degrees are best modeled by a *discrete
lognormal* while the social degree of attribute nodes is best modeled by a
*power law*.  This module provides the candidate families: normalised pmfs on
``{xmin, xmin+1, ...}``, log-pmfs, sampling, and moments.

The three heavy-tailed families are exponential families in their natural
parameters, so a maximum-likelihood fit needs, per iterate, the normaliser
and the model's mean and covariance of the sufficient statistics
(:mod:`repro.fitting.mle`).  Each family's ``_moments`` makes that one pass:
it sums its first :data:`EXACT_HEAD` support points term by term, and adds
the rest of the support by Euler-Maclaurin -- the integral of each weighted
statistic, the two endpoint halves and the first-derivative correction.  The
integrals are closed-form for the power law (the Hurwitz zeta function's
tail, an exponential times a polynomial in ``ln k``) and for the lognormal
(Gaussian in ``ln k``, by ``erfc`` and integration by parts); the cutoff's
integrand is smooth and bounded in ``ln k``, and a fixed Gauss-Legendre rule
integrates it.  The normalisers are the same pass without the statistics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Truncation point used to normalise discrete distributions numerically.  The
#: tail mass beyond this support is negligible for every fit the library runs.
DEFAULT_SUPPORT_MAX = 10 ** 6

#: Support points every normaliser sums term by term; the rest of the
#: support is added by Euler-Maclaurin.
EXACT_HEAD = 2048

#: Largest value :meth:`PowerLaw.sample` returns.  Its continuous tail
#: ``(1 - u)^(-1/(alpha - 1))`` passes the int64 range for alpha near 1
#: (measured: 29 of 200,000 draws at alpha = 1.2), where the cast to int is
#: invalid; capping first keeps every sample a valid integer >= xmin.
SAMPLE_CAP = 2 ** 62

#: The samplers draw ``k <= SAMPLE_TABLE`` from an exact discrete CDF table
#: and larger values from a continuous tail.
SAMPLE_TABLE = 100000

#: Gauss-Legendre rule for the cutoff's tail integral over ``ln k``; 24
#: nodes already agree with the term-by-term sums to 4e-15.
_QUADRATURE = np.polynomial.legendre.leggauss(32)

#: One pass over a support: ``(log Z, E[statistics])``.
Moments = Tuple[float, Optional[np.ndarray]]


def _combine(log_weights: np.ndarray, rows: Optional[np.ndarray], tail=None) -> Moments:
    """``(log Z, E[rows])`` of the weights ``exp(log_weights)`` on a head plus a tail.

    ``rows`` holds one statistic per row, evaluated on the head's points.
    ``tail`` is ``(ref, total, sums)``: the tail's weight and its weighted
    statistic sums, each scaled by ``e^-ref``.  Every term is rescaled by the
    largest before it is added, so none overflows.
    """
    peak = float(np.max(log_weights))
    weights = np.exp(log_weights - peak)
    total = float(np.sum(weights))
    sums = None if rows is None else rows @ weights
    if tail is not None:
        ref, tail_total, tail_sums = tail
        top = max(peak, ref)
        head_scale, tail_scale = math.exp(peak - top), math.exp(ref - top)
        total = total * head_scale + tail_total * tail_scale
        if sums is not None:
            sums = sums * head_scale + np.asarray(tail_sums) * tail_scale
        peak = top
    return peak + math.log(total), None if sums is None else sums / total


def _end_terms(weights, slopes, values=(1.0, 1.0), derivatives=(0.0, 0.0)) -> float:
    """Euler-Maclaurin's ``(f(a) + f(b)) / 2 + (f'(b) - f'(a)) / 12`` at the ends ``(a, b)``.

    ``f`` is the weight times a statistic: ``weights`` and ``slopes`` (the log
    weight's derivative) at the two ends, and the statistic's ``values`` and
    ``derivatives`` there.  An open upper end passes a zero weight.
    """
    (w_a, w_b), (s_a, s_b) = weights, slopes
    (v_a, v_b), (d_a, d_b) = values, derivatives
    return (w_a * v_a + w_b * v_b) / 2 + (w_b * (d_b + v_b * s_b) - w_a * (d_a + v_a * s_a)) / 12


@functools.lru_cache(maxsize=8)
def _head(xmin: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(k, ln k)`` over the first :data:`EXACT_HEAD` support points, read-only."""
    ks = np.arange(xmin, xmin + EXACT_HEAD, dtype=float)
    logs = np.log(ks)
    ks.flags.writeable = logs.flags.writeable = False
    return ks, logs


def _support(xmin: int, last: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(k, ln k)`` for ``k = xmin..last``: a view of :func:`_head` where it reaches."""
    if last < xmin + EXACT_HEAD:
        ks, logs = _head(xmin)
        return ks[: last - xmin + 1], logs[: last - xmin + 1]
    ks = np.arange(xmin, last + 1, dtype=float)
    return ks, np.log(ks)


def _powers(values: np.ndarray, order: int) -> np.ndarray:
    """Rows ``values^1 .. values^order``."""
    rows = np.empty((order, values.size))
    rows[0] = values
    for j in range(1, order):
        np.multiply(rows[j - 1], values, out=rows[j])
    return rows


@functools.lru_cache(maxsize=8)
def _head_powers(xmin: int, center: float, order: int) -> np.ndarray:
    """:func:`_powers` of ``ln k - center`` over :func:`_head`, read-only."""
    rows = _powers(_head(xmin)[1] - center, order)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class PowerLaw:
    """Discrete power law ``p(k) ∝ k^(-alpha)`` for ``k >= xmin``."""

    alpha: float
    xmin: int = 1

    def _moments(self, statistics: bool = False) -> Moments:
        """``(ln zeta(alpha, xmin), [E ln k, E (ln k)^2])`` for alpha > 1.

        The tail ``k >= xmin + EXACT_HEAD`` integrates in ``t = ln k`` as
        ``int t^j e^(-(alpha - 1) t) dt``, in closed form.  Its next
        Euler-Maclaurin term, ``f'''(a) / 720``, is below 1e-17 of the sum
        for alpha in [1.01, 6].
        """
        alpha, beta = self.alpha, self.alpha - 1
        _, logs = _head(self.xmin)
        first = self.xmin + EXACT_HEAD
        t = math.log(first)
        # int_a^inf t^j e^(-beta t) dt is e^(-beta ln a) times the leading terms below.
        ref = -beta * t
        ends = ((math.exp(-alpha * t - ref), 0.0), (-alpha / first, 0.0))
        total = 1 / beta + _end_terms(*ends)
        if not statistics:
            return _combine(-alpha * logs, None, (ref, total, None))
        sums = (
            t / beta + 1 / beta ** 2 + _end_terms(*ends, (t, 0.0), (1 / first, 0.0)),
            t * t / beta + 2 * t / beta ** 2 + 2 / beta ** 3
            + _end_terms(*ends, (t * t, 0.0), (2 * t / first, 0.0)),
        )
        return _combine(-alpha * logs, _head_powers(self.xmin, 0.0, 2), (ref, total, sums))

    def _log_normaliser(self) -> float:
        return self._moments()[0] if self.alpha > 1 else math.log(self._normaliser())

    def _normaliser(self) -> float:
        # The Hurwitz zeta function zeta(alpha, xmin).  The series diverges
        # for alpha <= 1, where a sum truncated at 10^5 terms stands in.
        if self.alpha > 1:
            return math.exp(self._moments()[0])
        ks = np.arange(self.xmin, 100000, dtype=float)
        return float(np.sum(ks ** -self.alpha))

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return -self.alpha * np.log(values) - self._log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact inverse-CDF sampling over a finite table, continuous tail beyond it.

        The head (``k <=`` :data:`SAMPLE_TABLE`) is sampled from the exact discrete CDF;
        the residual tail mass uses the standard continuous approximation,
        which is accurate there because the discreteness correction vanishes
        for large ``k``.  Tail draws are capped at :data:`SAMPLE_CAP`
        (``2**62``) so that heavy tails (alpha near 1) stay inside int64.
        """
        ks = np.arange(self.xmin, SAMPLE_TABLE + 1, dtype=float)
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
                continuous = (SAMPLE_TABLE + 0.5) * (1 - tail_uniforms) ** (
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

    def _support_end(self) -> int:
        """The last support point: ``e^(mu + 8 sigma)``, clamped to ``[1000, 10^6]``."""
        top = self.mu + 8 * self.sigma
        if top >= math.log(DEFAULT_SUPPORT_MAX):
            return DEFAULT_SUPPORT_MAX
        return max(1000, int(math.exp(top)))

    def _moments(self, center: float = 0.0, order: int = 0) -> Moments:
        """``(log Z, [E (ln k - center)^j for j = 1..order])`` in one pass.

        The support runs to :meth:`_support_end`, but only its first
        EXACT_HEAD points are summed term by term.  The next Euler-Maclaurin
        correction (third derivative) is negligible while the weight spans
        many integers, sigma * k >= 50 over the tail.  Narrower weights, and
        supports capped below the median e^mu, are summed whole.
        """
        cutoff = self._support_end()
        split = min(cutoff, self.xmin + EXACT_HEAD - 1)
        if self.sigma * split < 50 or math.log(cutoff) < self.mu:
            split = cutoff
        _, logs = _support(self.xmin, split)
        rows = None
        if order and split < self.xmin + EXACT_HEAD:
            rows = _head_powers(self.xmin, center, order)[:, : logs.size]
        elif order:
            rows = _powers(logs - center, order)
        tail = None if split == cutoff else self._tail(split + 1, cutoff, center, order)
        return _combine(self._log_weights_from_logs(logs), rows, tail)

    def _tail(self, first: int, last: int, center: float, order: int):
        """The support ``first..last`` by Euler-Maclaurin, in :func:`_combine`'s tail form.

        In ``t = ln k`` the weight times ``dk`` is the Gaussian
        ``G(t) = e^(-(t - mu)^2 / (2 sigma^2)) dt``.  Its integral is a
        difference of ``erfc``; with ``s = t - center`` and ``delta = mu -
        center``, integration by parts gives the moments
        ``N_(j+1) = delta N_j + sigma^2 (s_a^j G_a - s_b^j G_b) + j sigma^2 N_(j-1)``.
        """
        mu, variance = self.mu, self.sigma ** 2
        log_first, log_last = math.log(first), math.log(last)
        # Differencing erfc of the upper (or the mirrored lower) tails avoids
        # cancellation.
        scale = self.sigma * math.sqrt(2)
        z_first, z_last = (log_first - mu) / scale, (log_last - mu) / scale
        if z_first > 0:
            mass = math.erfc(z_first) - math.erfc(z_last)
        else:
            mass = math.erfc(-z_last) - math.erfc(-z_first)
        log_integral = (
            math.log(self.sigma * math.sqrt(math.pi / 2) * mass) if mass > 0 else -math.inf
        )
        ref = max(log_integral, -z_first ** 2, -z_last ** 2)
        integral = math.exp(log_integral - ref)
        gauss_first, gauss_last = math.exp(-z_first ** 2 - ref), math.exp(-z_last ** 2 - ref)
        # The weight is G / k; f'(k) = f(k) * slope(k), the log weight's derivative.
        ends = (
            (gauss_first / first, gauss_last / last),
            (-(1 + (log_first - mu) / variance) / first, -(1 + (log_last - mu) / variance) / last),
        )
        total = integral + _end_terms(*ends)
        if not order:
            return ref, total, None
        s_first, s_last = log_first - center, log_last - center
        delta = mu - center
        moments, previous, sums = [integral], 0.0, []
        for j in range(order):
            following = delta * moments[j] + j * variance * previous + variance * (
                s_first ** j * gauss_first - s_last ** j * gauss_last
            )
            previous = moments[j]
            moments.append(following)
            sums.append(following + _end_terms(
                *ends,
                (s_first ** (j + 1), s_last ** (j + 1)),
                ((j + 1) * s_first ** j / first, (j + 1) * s_last ** j / last),
            ))
        return ref, total, sums

    def _log_normaliser(self) -> float:
        return self._moments()[0]

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if np.any(values < self.xmin):
            raise ValueError("all values must be >= xmin")
        return self._log_weights(values) - self._log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact inverse-CDF sampling over a finite table, continuous tail beyond it.

        The head (``k <=`` :data:`SAMPLE_TABLE`) is sampled from the pmf's
        exact discrete CDF.  A draw past the table takes ``ln k`` from the
        normal ``(mu, sigma)`` truncated to the rest of the support, rounded:
        the lognormal density is the weight itself, so rounding it is the pmf
        up to the discreteness correction, which vanishes there.
        """
        end = self._support_end()
        last = min(end, max(self.xmin, SAMPLE_TABLE))
        ks = np.arange(self.xmin, last + 1, dtype=float)
        cdf = np.cumsum(np.exp(self._log_weights(ks) - self._log_normaliser()))
        uniforms = rng.random(size)
        samples = np.empty(size, dtype=np.int64)
        in_head = uniforms < cdf[-1]
        samples[in_head] = self.xmin + np.searchsorted(cdf, uniforms[in_head])
        num_tail = int(np.sum(~in_head))
        if num_tail:
            # Invert the upper tail of the normal: its survival function
            # between ln(last + 0.5) and ln(end + 0.5), the standard
            # quantile of a small probability keeping full precision.
            # Imported here: no pipeline run samples, and the import costs milliseconds.
            from statistics import NormalDist

            scale = self.sigma * math.sqrt(2)
            upper = 0.5 * math.erfc((math.log(last + 0.5) - self.mu) / scale)
            lower = 0.5 * math.erfc((math.log(end + 0.5) - self.mu) / scale)
            standard = NormalDist()
            draws = [
                self.mu - self.sigma * standard.inv_cdf(max(upper - u * (upper - lower), 5e-324))
                for u in rng.random(num_tail)
            ]
            tail = np.floor(np.exp(np.minimum(draws, math.log(end + 0.5))) + 0.5)
            samples[~in_head] = np.clip(tail, last + 1, end).astype(np.int64)
        return samples

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

    def _moments(self, statistics: bool = False) -> Moments:
        """``(log Z, [E ln k, E k, E (ln k)^2, E k ln k, E k^2])`` in one pass.

        The support ends where e^(-lambda k) has fallen by e^-20, clamped to
        [1000, DEFAULT_SUPPORT_MAX].  Its first EXACT_HEAD points are summed
        term by term; the rest is Euler-Maclaurin, with the integrals taken
        over ``t = ln k`` by :data:`_QUADRATURE`.  A tail exists only for
        lambda < 20 / EXACT_HEAD, where the log weight's slope alpha / k +
        lambda stays below 0.02 (alpha <= 20), so the next correction, about
        slope^3 / 720 of f(first) <= head / 2048, is below 1e-11 of the sum.
        Without a cutoff (lambda = 0) the support is summed whole.
        """
        cutoff = max(1000, int(20 / max(self.cutoff_rate, 1e-6)))
        cutoff = min(cutoff, DEFAULT_SUPPORT_MAX)
        split = min(cutoff, self.xmin + EXACT_HEAD - 1)
        if self.cutoff_rate <= 0:
            split = cutoff
        ks, logs = _support(self.xmin, split)
        rows = None
        if statistics and split < self.xmin + EXACT_HEAD:
            rows = _cutoff_head_statistics(self.xmin)[:, : ks.size]
        elif statistics:
            rows = _cutoff_statistics(logs, ks)
        tail = None if split == cutoff else self._tail(split + 1, cutoff, statistics)
        return _combine(-self.alpha * logs - self.cutoff_rate * ks, rows, tail)

    def _tail(self, first: int, last: int, statistics: bool):
        """The support ``first..last`` by Euler-Maclaurin, in :func:`_combine`'s tail form.

        In ``t = ln k`` the integrand is ``e^((1 - alpha) t - lambda e^t)``
        times a statistic: analytic and bounded in the strip ``|Im t| <
        pi / 2`` for every alpha, integer or not, so Gauss-Legendre converges
        geometrically on it.
        """
        alpha, rate = self.alpha, self.cutoff_rate
        low, high = math.log(first), math.log(last)
        nodes, node_weights = _QUADRATURE
        logs = (high - low) / 2 * nodes + (high + low) / 2
        ks = np.exp(logs)
        log_integrand = (1 - alpha) * logs - rate * ks
        log_ends = (-alpha * low - rate * first, -alpha * high - rate * last)
        ref = max(float(np.max(log_integrand)), *log_ends)
        integrand = node_weights * ((high - low) / 2) * np.exp(log_integrand - ref)
        ends = (
            (math.exp(log_ends[0] - ref), math.exp(log_ends[1] - ref)),
            (-alpha / first - rate, -alpha / last - rate),
        )
        total = float(np.sum(integrand)) + _end_terms(*ends)
        if not statistics:
            return ref, total, None
        # Each statistic's values and k-derivatives at the two ends.
        statistic_ends = (
            ((low, high), (1 / first, 1 / last)),
            ((first, last), (1.0, 1.0)),
            ((low * low, high * high), (2 * low / first, 2 * high / last)),
            ((first * low, last * high), (1 + low, 1 + high)),
            ((first * first, last * last), (2.0 * first, 2.0 * last)),
        )
        corrections = [_end_terms(*ends, *pair) for pair in statistic_ends]
        return ref, total, _cutoff_statistics(logs, ks) @ integrand + corrections

    def _log_normaliser(self) -> float:
        return self._moments()[0]

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


def _cutoff_statistics(logs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """The cutoff's statistics and their products: ``ln k, k, (ln k)^2, k ln k, k^2``."""
    return np.vstack([logs, ks, logs * logs, ks * logs, ks * ks])


@functools.lru_cache(maxsize=8)
def _cutoff_head_statistics(xmin: int) -> np.ndarray:
    """:func:`_cutoff_statistics` over :func:`_head`, read-only."""
    ks, logs = _head(xmin)
    rows = _cutoff_statistics(logs, ks)
    rows.flags.writeable = False
    return rows


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

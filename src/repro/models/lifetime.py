"""Lifetime and sleep-time sampling for the generative model (Section 5.3).

* Node lifetimes follow a normal distribution truncated at zero — the key
  ingredient that makes the social out-degree lognormal (Theorem 1).
* Sleep times have mean ``mean_sleep / out_degree``: higher-out-degree nodes
  wake up more often.  Only the mean matters for the theory; an exponential
  distribution is used here.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..utils.rng import RngLike, ensure_rng
from .parameters import LifetimeParameters


def truncated_normal_block(
    params: LifetimeParameters, generator, size: int, max_refills: int = 50
):
    """Vectorized batch of truncated-normal lifetime draws.

    ``generator`` is a ``numpy.random.Generator``; the returned numpy array
    holds exactly ``size`` draws from ``Normal(mu, sigma)`` truncated to
    ``[0, inf)``, produced by vectorized rejection (draw a block, keep the
    non-negative entries, repeat).  The Algorithm 1 generator consumes its
    lifetimes from these blocks.  After ``max_refills`` rounds (pathological
    parameters only) the remainder is filled with zero-clamped draws.
    """
    import numpy as np

    if size <= 0:
        return np.empty(0, dtype=np.float64)
    kept = []
    remaining = size
    for _ in range(max_refills):
        if remaining <= 0:
            break
        # Oversample by the acceptance rate's inverse would be ideal; a flat
        # 2x keeps refills rare for every parameter range the model uses.
        draws = generator.normal(params.mu, params.sigma, max(2 * remaining, 16))
        accepted = draws[draws >= 0]
        kept.append(accepted[:remaining])
        remaining -= accepted[:remaining].size
    if remaining > 0:
        kept.append(np.maximum(generator.normal(params.mu, params.sigma, remaining), 0.0))
    return np.concatenate(kept) if len(kept) != 1 else kept[0]


def sample_sleep_time(
    params: LifetimeParameters, out_degree: int, rng: RngLike = None
) -> float:
    """Exponential sleep time with mean ``mean_sleep / max(out_degree, 1)``."""
    generator = ensure_rng(rng)
    mean = params.mean_sleep / max(out_degree, 1)
    return generator.expovariate(1.0 / mean) if mean > 0 else 0.0


def truncated_normal_moments(mu: float, sigma: float) -> Tuple[float, float]:
    """Mean and variance of ``Normal(mu, sigma)`` truncated to ``[0, inf)``.

    Matches the quantities used in Theorem 1: with ``gamma = -mu / sigma``,
    ``g(gamma) = phi(gamma) / (1 - Phi(gamma))`` and ``delta = g (g - gamma)``,
    the truncated mean is ``mu + sigma g`` and the variance
    ``sigma^2 (1 - delta)``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    gamma = -mu / sigma
    phi = math.exp(-gamma * gamma / 2) / math.sqrt(2 * math.pi)
    capital_phi = 0.5 * (1 + math.erf(gamma / math.sqrt(2)))
    survival = 1 - capital_phi
    if survival <= 1e-12:
        return max(mu, 0.0), 0.0
    g = phi / survival
    delta = g * (g - gamma)
    return mu + sigma * g, sigma * sigma * (1 - delta)

"""Best-fit selection among the candidate degree distributions.

Mirrors the paper's use of the Clauset-Shalizi-Newman toolchain: fit each
candidate family by maximum likelihood, then rank by log-likelihood (with the
pairwise Vuong test available for significance statements).  The headline
results in the paper — Google+ social degrees are lognormal, the social degree
of attribute nodes is power-law — correspond to :func:`best_fit_name` returning
the corresponding family name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from .goodness_of_fit import LikelihoodRatioResult, ks_statistic, likelihood_ratio_test
from .mle import (
    FitResult,
    fit_exponential,
    fit_lognormal,
    fit_power_law,
    fit_power_law_with_cutoff,
)

#: The candidate families compared by default (name -> fit function).
DEFAULT_CANDIDATES: Dict[str, Callable[..., FitResult]] = {
    "lognormal": fit_lognormal,
    "power_law": fit_power_law,
    "power_law_with_cutoff": fit_power_law_with_cutoff,
    "exponential": fit_exponential,
}


@dataclass
class ModelComparison:
    """All candidate fits for one sample, ranked by log-likelihood."""

    fits: Dict[str, FitResult] = field(default_factory=dict)
    ks: Dict[str, float] = field(default_factory=dict)

    @property
    def best_name(self) -> str:
        return max(self.fits, key=lambda name: self.fits[name].log_likelihood)


def compare_distributions(
    values: Sequence[int],
    xmin: int = 1,
    candidates: Optional[Dict[str, Callable[..., FitResult]]] = None,
    compute_ks: bool = True,
) -> ModelComparison:
    """Fit every candidate family to ``values`` and collect the results."""
    chosen = candidates if candidates is not None else DEFAULT_CANDIDATES
    comparison = ModelComparison()
    for name, fit_function in chosen.items():
        try:
            result = fit_function(values, xmin=xmin)
        except (ValueError, FloatingPointError):
            continue
        comparison.fits[name] = result
        if compute_ks:
            try:
                comparison.ks[name] = ks_statistic(values, result.distribution)
            except (ValueError, MemoryError):
                comparison.ks[name] = float("nan")
    if not comparison.fits:
        raise ValueError("no candidate distribution could be fitted to the sample")
    return comparison


def best_fit_name(values: Sequence[int], xmin: int = 1) -> str:
    """Name of the best-fitting candidate family ('lognormal', 'power_law', ...)."""
    return compare_distributions(values, xmin=xmin, compute_ks=False).best_name


def lognormal_vs_power_law(values: Sequence[int], xmin: int = 1) -> LikelihoodRatioResult:
    """Direct head-to-head comparison used throughout the degree analyses."""
    lognormal = fit_lognormal(values, xmin=xmin)
    power_law = fit_power_law(values, xmin=xmin)
    return likelihood_ratio_test(values, lognormal.distribution, power_law.distribution)

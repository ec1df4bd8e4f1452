"""Degree-distribution fitting: candidate families, MLE, GOF, model selection."""

from .distributions import (
    DiscreteExponential,
    DiscreteLognormal,
    PowerLaw,
    PowerLawWithCutoff,
)
from .goodness_of_fit import (
    LikelihoodRatioResult,
    empirical_cdf,
    ks_statistic,
    likelihood_ratio_test,
)
from .mle import (
    FitResult,
    fit_exponential,
    fit_lognormal,
    fit_lognormal_parameters_over_time,
    fit_power_law,
    fit_power_law_exponent_over_time,
    fit_power_law_with_cutoff,
)
from .model_selection import (
    DEFAULT_CANDIDATES,
    ModelComparison,
    best_fit_name,
    compare_distributions,
    lognormal_vs_power_law,
)

__all__ = [
    "DiscreteExponential",
    "DiscreteLognormal",
    "PowerLaw",
    "PowerLawWithCutoff",
    "LikelihoodRatioResult",
    "empirical_cdf",
    "ks_statistic",
    "likelihood_ratio_test",
    "FitResult",
    "fit_exponential",
    "fit_lognormal",
    "fit_lognormal_parameters_over_time",
    "fit_power_law",
    "fit_power_law_exponent_over_time",
    "fit_power_law_with_cutoff",
    "DEFAULT_CANDIDATES",
    "ModelComparison",
    "best_fit_name",
    "compare_distributions",
    "lognormal_vs_power_law",
]

"""Shared utilities: statistics helpers, RNG management, validation."""

from .rng import ensure_rng
from .stats import (
    ks_two_sample_threshold,
    log_binned_average,
    log_binned_histogram,
    percentile,
    two_sample_ks_statistic,
)
from .validation import require_non_negative, require_positive, require_probability

__all__ = [
    "ensure_rng",
    "ks_two_sample_threshold",
    "two_sample_ks_statistic",
    "log_binned_average",
    "log_binned_histogram",
    "percentile",
    "require_non_negative",
    "require_positive",
    "require_probability",
]

"""Application benchmarks: Sybil defense, anonymous communication, prediction."""

from .anonymity import (
    AnonymityParameters,
    AnonymityResult,
    attack_probability_vs_compromised,
    end_to_end_attack_probability,
)
from .link_prediction import (
    ALL_FEATURES,
    STRUCTURE_FEATURES,
    LogisticPredictor,
    PredictionDataset,
    auc_score,
    build_link_prediction_dataset,
    build_reciprocity_dataset,
    compare_predictors,
    pair_features,
    pair_features_batch,
)
from .sybil import (
    SybilDefenseResult,
    SybilLimitParameters,
    sybil_identities_vs_compromised,
)

__all__ = [
    "AnonymityParameters",
    "AnonymityResult",
    "attack_probability_vs_compromised",
    "end_to_end_attack_probability",
    "ALL_FEATURES",
    "STRUCTURE_FEATURES",
    "LogisticPredictor",
    "PredictionDataset",
    "auc_score",
    "build_link_prediction_dataset",
    "build_reciprocity_dataset",
    "compare_predictors",
    "pair_features",
    "pair_features_batch",
    "SybilDefenseResult",
    "SybilLimitParameters",
    "sybil_identities_vs_compromised",
]

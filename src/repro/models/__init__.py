"""Generative models: Algorithm 1, triangle closing, likelihoods, the Zhel baseline, theory."""

from .estimation import EstimationResult, estimate_parameters
from .history import ArrivalEvent, ArrivalHistory, HistoryColumns, apply_event
from .lifetime import (
    expected_lifetime,
    sample_sleep_time,
    truncated_normal_moments,
)
from .fast_likelihood import (
    DEFAULT_LIKELIHOOD_SEED,
    AttachmentModelSpec,
    EncodedHistory,
    LikelihoodResult,
    encode_history,
    evaluate_attachment_models,
)
from .likelihood import figure15_specs, figure15_sweep
from .parameters import (
    AttachmentParameters,
    FlashCrowd,
    LifetimeParameters,
    SANModelParameters,
    SybilWave,
    ZhelModelParameters,
)
from .san_model import SANModelRun, SnapshotMark, generate_san
from .theory import (
    LognormalPrediction,
    harmonic_outdegree_approximation,
    invert_theorem_one,
    invert_theorem_two,
    predicted_attribute_degree_lognormal,
    predicted_attribute_social_degree_exponent,
    predicted_outdegree_lognormal,
)
from .triangle_closing import (
    BaselineClosing,
    ClosureModelComparison,
    ClosureScores,
    RandomRandomClosing,
    RandomRandomSANClosing,
    TriangleClosingModel,
    evaluate_closure_models,
    score_closures,
)
from .zhel import ZhelGenerativeModel, ZhelModelRun, generate_zhel_san

__all__ = [
    "EstimationResult",
    "estimate_parameters",
    "ArrivalEvent",
    "ArrivalHistory",
    "HistoryColumns",
    "apply_event",
    "expected_lifetime",
    "sample_sleep_time",
    "truncated_normal_moments",
    "DEFAULT_LIKELIHOOD_SEED",
    "AttachmentModelSpec",
    "EncodedHistory",
    "LikelihoodResult",
    "encode_history",
    "evaluate_attachment_models",
    "figure15_specs",
    "figure15_sweep",
    "AttachmentParameters",
    "FlashCrowd",
    "LifetimeParameters",
    "SANModelParameters",
    "SybilWave",
    "ZhelModelParameters",
    "SANModelRun",
    "SnapshotMark",
    "generate_san",
    "LognormalPrediction",
    "harmonic_outdegree_approximation",
    "invert_theorem_one",
    "invert_theorem_two",
    "predicted_attribute_degree_lognormal",
    "predicted_attribute_social_degree_exponent",
    "predicted_outdegree_lognormal",
    "BaselineClosing",
    "ClosureModelComparison",
    "ClosureScores",
    "RandomRandomClosing",
    "RandomRandomSANClosing",
    "TriangleClosingModel",
    "evaluate_closure_models",
    "score_closures",
    "ZhelGenerativeModel",
    "ZhelModelRun",
    "generate_zhel_san",
]

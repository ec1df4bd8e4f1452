"""Generative models: attachment, triangle closing, Algorithm 1, baselines, theory."""

from .attachment import (
    AttachmentModel,
    LinearAttributePreferentialAttachment,
    PowerAttributePreferentialAttachment,
    PreferentialAttachment,
    UniformAttachment,
    make_attachment_model,
    sample_lapa_target_fast,
    shared_attribute_count,
)
from .estimation import EstimationResult, estimate_parameters, greedy_refine
from .fast_sim import (
    FastSANModelRun,
    SnapshotMark,
    generate_san_fast,
    san_generate,
)
from .history import ArrivalEvent, ArrivalHistory, apply_event
from .kim_leskovec import expected_degree, generate_mag_san
from .lifetime import (
    expected_lifetime,
    sample_sleep_time,
    sample_truncated_normal_lifetime,
    truncated_normal_moments,
)
from .fast_likelihood import (
    EncodedHistory,
    encode_history,
    evaluate_attachment_models_fast,
)
from .likelihood import (
    DEFAULT_LIKELIHOOD_SEED,
    AttachmentModelSpec,
    LikelihoodResult,
    evaluate_attachment_models,
    evaluate_attachment_models_loop,
    figure15_specs,
    figure15_sweep,
)
from .parameters import (
    AttachmentParameters,
    FlashCrowd,
    LifetimeParameters,
    MAGModelParameters,
    SANModelParameters,
    SybilWave,
    ZhelModelParameters,
)
from .san_model import SANGenerativeModel, SANModelRun, generate_san
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
    RandomRandomClosing,
    RandomRandomSANClosing,
    TriangleClosingModel,
    evaluate_closure_models,
)
from .zhel import ZhelGenerativeModel, generate_zhel_san

__all__ = [
    "AttachmentModel",
    "LinearAttributePreferentialAttachment",
    "PowerAttributePreferentialAttachment",
    "PreferentialAttachment",
    "UniformAttachment",
    "make_attachment_model",
    "sample_lapa_target_fast",
    "shared_attribute_count",
    "EstimationResult",
    "estimate_parameters",
    "greedy_refine",
    "FastSANModelRun",
    "SnapshotMark",
    "generate_san_fast",
    "san_generate",
    "ArrivalEvent",
    "ArrivalHistory",
    "apply_event",
    "expected_degree",
    "generate_mag_san",
    "expected_lifetime",
    "sample_sleep_time",
    "sample_truncated_normal_lifetime",
    "truncated_normal_moments",
    "DEFAULT_LIKELIHOOD_SEED",
    "AttachmentModelSpec",
    "EncodedHistory",
    "LikelihoodResult",
    "encode_history",
    "evaluate_attachment_models",
    "evaluate_attachment_models_fast",
    "evaluate_attachment_models_loop",
    "figure15_specs",
    "figure15_sweep",
    "AttachmentParameters",
    "FlashCrowd",
    "LifetimeParameters",
    "MAGModelParameters",
    "SANModelParameters",
    "SybilWave",
    "ZhelModelParameters",
    "SANGenerativeModel",
    "SANModelRun",
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
    "RandomRandomClosing",
    "RandomRandomSANClosing",
    "TriangleClosingModel",
    "evaluate_closure_models",
    "ZhelGenerativeModel",
    "generate_zhel_san",
]

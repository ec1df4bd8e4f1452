"""The experiment pipeline: figure drivers, artifact DAG, scenarios, runner.

Importing this package registers every figure/section driver as a pipeline
stage (see :mod:`.figures` and :mod:`.registry`) and every shared input as an
artifact node (see :mod:`.artifacts`).  The figure functions are re-exported
here straight from the stage registry — there is no hand-maintained export
list to fall out of sync with the figures module.
"""

from . import figures as _figures  # registers every stage on import
from . import validation as _validation  # registers the fidelity stage
from .answer_keys import (
    AnswerKey,
    AnswerKeyError,
    AssertionResult,
    KeyAssertion,
    MalformedAnswerKeyError,
    UnknownAnswerKeyError,
    answer_key_names,
    answer_key_path,
    default_keys_dir,
    evaluate_answer_key,
    load_answer_key,
)
from .artifacts import (
    ArtifactCycleError,
    ArtifactError,
    ArtifactResolver,
    ArtifactSpec,
    ArtifactStore,
    UnknownArtifactError,
    artifact,
    artifact_names,
    artifact_spec,
    artifact_topological_order,
    register_artifact,
    unregister_artifact,
)
from .registry import (
    DuplicateExperimentError,
    ExperimentStage,
    UnknownExperimentError,
    experiment,
    experiment_names,
    experiment_stages,
    get_experiment,
    register_experiment,
    unregister_experiment,
)
from .report import (
    format_series,
    format_table,
    render_payload,
    series_trend,
)
from .runner import (
    PipelineResult,
    StageResult,
    canonical_json,
    canonical_payload,
    pipeline_artifact_plan,
    run_pipeline,
    select_stages,
    write_outputs,
)
from .scenarios import (
    DEFAULT_FIGURE_SEED,
    Scenario,
    UnknownScenarioError,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .validation import ValidationResult, run_validation, write_validation_outputs

# Re-export every registered figure/section driver from the stage registry.
_DRIVER_NAMES = []
for _stage in experiment_stages().values():
    globals()[_stage.fn.__name__] = _stage.fn
    _DRIVER_NAMES.append(_stage.fn.__name__)

__all__ = sorted(_DRIVER_NAMES) + [
    "AnswerKey",
    "AnswerKeyError",
    "ArtifactCycleError",
    "ArtifactError",
    "ArtifactResolver",
    "ArtifactSpec",
    "ArtifactStore",
    "AssertionResult",
    "DEFAULT_FIGURE_SEED",
    "DuplicateExperimentError",
    "ExperimentStage",
    "KeyAssertion",
    "MalformedAnswerKeyError",
    "PipelineResult",
    "Scenario",
    "StageResult",
    "UnknownAnswerKeyError",
    "UnknownArtifactError",
    "UnknownExperimentError",
    "UnknownScenarioError",
    "ValidationResult",
    "answer_key_names",
    "answer_key_path",
    "artifact",
    "artifact_names",
    "artifact_spec",
    "artifact_topological_order",
    "canonical_json",
    "canonical_payload",
    "default_keys_dir",
    "evaluate_answer_key",
    "experiment",
    "experiment_names",
    "experiment_stages",
    "format_series",
    "format_table",
    "get_experiment",
    "get_scenario",
    "load_answer_key",
    "pipeline_artifact_plan",
    "register_artifact",
    "register_experiment",
    "register_scenario",
    "render_payload",
    "run_pipeline",
    "run_validation",
    "scenario_names",
    "select_stages",
    "series_trend",
    "unregister_artifact",
    "unregister_experiment",
    "write_outputs",
    "write_validation_outputs",
]

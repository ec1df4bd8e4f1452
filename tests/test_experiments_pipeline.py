"""Tests for the experiment pipeline: DAG semantics, caching, parity.

Covers the three contract areas of the pipeline subsystem:

* **DAG semantics** — topological artifact ordering, unknown-dependency
  errors, cycle detection, unknown stage/scenario errors;
* **caching** — content-addressed hits, invalidation on scenario change and
  recipe-version bumps, warm reruns recomputing nothing;
* **parity** — pipeline stage outputs byte-identical to direct ``figure*``
  calls on the same artifacts, across cold/warm caches and ``--jobs``;
* **stage execution** — when the process pool is used, and per-stage
  failure collection on both the serial and the process path.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from san_cases import is_mmap_backed

from repro.experiments import (
    ArtifactCycleError,
    ArtifactResolver,
    DEFAULT_FIGURE_SEED,
    UnknownArtifactError,
    UnknownExperimentError,
    UnknownScenarioError,
    artifact_names,
    artifact_topological_order,
    canonical_json,
    experiment_names,
    experiment_stages,
    get_experiment,
    get_scenario,
    pipeline_artifact_plan,
    register_artifact,
    register_experiment,
    run_pipeline,
    run_validation,
    scenario_names,
    select_stages,
    unregister_artifact,
    unregister_experiment,
)
from repro.experiments.figures import (
    figure2_3_growth,
    figure5_degree_distributions,
    figure7_social_jdd,
    figure10_attribute_degrees,
    figure13_influence,
    section22_crawl_coverage,
)
from repro.experiments.runner import PipelineStageError

#: Stage subset used by the shared pipeline fixture: covers the crawl-side
#: artifact closure (evolution, series, frozen views, reference, halfway)
#: without generating any model SAN, so the module stays fast.
PARITY_FIGURES = ("fig02_03", "sec22", "fig05", "fig07", "fig10", "fig13")


@pytest.fixture(scope="module")
def pipeline_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline-cache")


@pytest.fixture(scope="module")
def tiny_pipeline(pipeline_cache):
    """A cold pipeline run of the parity stages on the tiny scenario."""
    return run_pipeline("tiny", figures=PARITY_FIGURES, cache_dir=pipeline_cache)


# ----------------------------------------------------------------------
# Registry / DAG semantics
# ----------------------------------------------------------------------
def test_every_figure_is_registered():
    names = experiment_names()
    assert len(names) == 20
    assert names[0] == "fig02_03" and names[-1] == "fidelity"
    for stage in experiment_stages().values():
        assert stage.needs, f"stage {stage.name} declares no artifacts"
        for need in stage.needs:
            assert need in artifact_names()


def test_package_exports_follow_the_registry():
    import repro.experiments as experiments

    for stage in experiment_stages().values():
        assert getattr(experiments, stage.fn.__name__) is stage.fn
        assert stage.fn.__name__ in experiments.__all__


def test_artifact_topological_order_is_dependency_closed():
    order = artifact_topological_order(["model_san"])
    assert order.index("evolution") < order.index("snapshot_series")
    assert order.index("snapshot_series") < order.index("reference_san")
    assert order.index("reference_san") < order.index("estimated_parameters")
    assert order.index("estimated_parameters") < order.index("model_san")
    # Requesting the full suite's artifacts stays a valid topological order.
    plan = pipeline_artifact_plan(select_stages())
    seen = set()
    for name in plan:
        from repro.experiments import artifact_spec

        assert all(dep in seen for dep in artifact_spec(name).needs)
        seen.add(name)


def test_unknown_artifact_dependency_is_an_error():
    register_experiment("t_broken", lambda x: x, needs=("no_such_artifact",))
    try:
        with pytest.raises(UnknownArtifactError, match="no_such_artifact"):
            pipeline_artifact_plan(select_stages(["t_broken"]))
    finally:
        unregister_experiment("t_broken")


def test_artifact_cycle_detection():
    register_artifact("t_cyc_a", lambda r: r.artifact("t_cyc_b"), needs=("t_cyc_b",))
    register_artifact("t_cyc_b", lambda r: r.artifact("t_cyc_a"), needs=("t_cyc_a",))
    try:
        with pytest.raises(ArtifactCycleError):
            artifact_topological_order(["t_cyc_a"])
        with pytest.raises(ArtifactCycleError):
            ArtifactResolver(get_scenario("tiny")).key("t_cyc_a")
    finally:
        unregister_artifact("t_cyc_a")
        unregister_artifact("t_cyc_b")


def test_unknown_stage_and_scenario_errors():
    with pytest.raises(UnknownExperimentError, match="fig99"):
        select_stages(["fig99"])
    with pytest.raises(UnknownExperimentError):
        get_experiment("not-a-stage")
    with pytest.raises(UnknownScenarioError, match="galactic"):
        get_scenario("galactic")


def test_scenario_presets_are_registered_and_tokenisable():
    names = scenario_names()
    for expected in (
        "paper-default",
        "tiny",
        "small",
        "large",
        "sparse",
        "dense",
        "high-reciprocity",
        "sybil-waves",
        "churn",
        "flash-crowd",
        "privacy-heavy",
    ):
        assert expected in names
        token = get_scenario(expected).cache_token()
        json.dumps(token, sort_keys=True)  # must be JSON-serializable


def test_figure_rng_defaults_are_seeded():
    """Regression: sampled figures default to the documented seed, not entropy."""
    import inspect

    from repro.experiments.figures import (
        figure4_evolution,
        figure8_attribute_structure,
        figure9_clustering_distributions,
        figure19_applications,
        section52_closure_comparison,
    )

    for fn in (
        figure4_evolution,
        figure8_attribute_structure,
        figure9_clustering_distributions,
        figure19_applications,
        section52_closure_comparison,
    ):
        assert (
            inspect.signature(fn).parameters["rng"].default == DEFAULT_FIGURE_SEED
        ), f"{fn.__name__} must default to DEFAULT_FIGURE_SEED"


# ----------------------------------------------------------------------
# Content-addressed caching
# ----------------------------------------------------------------------
def test_cache_hit_on_identical_scenario(tmp_path):
    scenario = get_scenario("tiny")
    first = ArtifactResolver(scenario, cache_dir=tmp_path)
    first.artifact("evolution")
    assert [e.status for e in first.events] == ["built"]

    second = ArtifactResolver(get_scenario("tiny"), cache_dir=tmp_path)
    evolution = second.artifact("evolution")
    assert [e.status for e in second.events] == ["cached"]
    assert evolution.num_days == scenario.config.num_days
    assert first.key("evolution") == second.key("evolution")


def test_cache_invalidation_on_scenario_change(tmp_path):
    from dataclasses import replace

    base = get_scenario("tiny")
    ArtifactResolver(base, cache_dir=tmp_path).artifact("evolution")

    changed = replace(base, seed=base.seed + 1)
    resolver = ArtifactResolver(changed, cache_dir=tmp_path)
    assert resolver.key("evolution") != ArtifactResolver(base).key("evolution")
    resolver.artifact("evolution")
    assert [e.status for e in resolver.events] == ["built"]


def test_cache_keys_cascade_through_dependencies():
    from dataclasses import replace

    base = ArtifactResolver(get_scenario("tiny"))
    changed = ArtifactResolver(replace(get_scenario("tiny"), seed=7))
    # Changing the seed re-keys the root artifact and everything downstream.
    for name in ("evolution", "snapshot_series", "reference_san", "model_san"):
        assert base.key(name) != changed.key(name)


def test_cache_invalidation_on_recipe_version_bump(tmp_path):
    calls = []

    def save(value, path):
        (path / "value.json").write_text(json.dumps(value), encoding="utf-8")

    def load(path):
        return json.loads((path / "value.json").read_text(encoding="utf-8"))

    def builder(resolver):
        calls.append(1)
        return {"value": 42}

    register_artifact("t_versioned", builder, version="1", save=save, load=load)
    try:
        scenario = get_scenario("tiny")
        ArtifactResolver(scenario, cache_dir=tmp_path).artifact("t_versioned")
        ArtifactResolver(scenario, cache_dir=tmp_path).artifact("t_versioned")
        assert len(calls) == 1  # second resolver hit the cache

        register_artifact("t_versioned", builder, version="2", save=save, load=load)
        ArtifactResolver(scenario, cache_dir=tmp_path).artifact("t_versioned")
        assert len(calls) == 2  # version bump re-keyed the entry
    finally:
        unregister_artifact("t_versioned")


def test_warm_columnar_hit_is_mmap_backed_with_sized_marker(
    tiny_pipeline, pipeline_cache
):
    """Warm snapshot hits are zero-parse: every snapshot of the series is
    served as an mmap view of the cache entry, whose marker records the
    payload hash and size from write time.  The frozen reference is a memory
    view of the series' last snapshot."""
    resolver = ArtifactResolver(get_scenario("tiny"), cache_dir=pipeline_cache)
    series = resolver.artifact("snapshot_series")
    event = next(e for e in resolver.events if e.name == "snapshot_series")
    assert event.status == "cached"
    assert len(series) > 0
    assert all(is_mmap_backed(san) for _, san in series)
    entry = resolver.store.entry_path("snapshot_series", event.key)
    marker = json.loads((entry / "ARTIFACT.json").read_text(encoding="utf-8"))
    payload_files = [p for p in entry.rglob("*") if p.is_file() and p.name != "ARTIFACT.json"]
    assert marker["payload_bytes"] == sum(p.stat().st_size for p in payload_files) > 0
    assert len(marker["payload_sha256"]) == 64
    assert event.bytes == marker["payload_bytes"]
    assert resolver.artifact("frozen_reference") is series.last()


def test_warm_rerun_recomputes_no_artifact(tiny_pipeline, pipeline_cache):
    warm = run_pipeline("tiny", figures=PARITY_FIGURES, cache_dir=pipeline_cache)
    assert warm.recomputed_persistent_artifacts() == []
    manifest = warm.manifest()
    assert manifest["cache"]["builds"] == 0
    assert manifest["cache"]["hits"] > 0


# ----------------------------------------------------------------------
# Runner output parity with direct figure calls
# ----------------------------------------------------------------------
def test_runner_stage_outputs_match_direct_calls(tiny_pipeline):
    """Byte-identical parity between pipeline stages and direct invocations."""
    resolver = tiny_pipeline.resolver
    scenario = tiny_pipeline.scenario
    direct = {
        "fig02_03": figure2_3_growth(resolver.artifact("snapshots")),
        "sec22": section22_crawl_coverage(resolver.artifact("snapshot_series")),
        "fig05": figure5_degree_distributions(resolver.artifact("frozen_reference")),
        "fig07": figure7_social_jdd(
            resolver.artifact("frozen_reference"), resolver.artifact("frozen_snapshots")
        ),
        "fig10": figure10_attribute_degrees(resolver.artifact("frozen_reference")),
        "fig13": figure13_influence(
            resolver.artifact("halfway_san"), resolver.artifact("reference_san")
        ),
    }
    assert set(direct) == set(PARITY_FIGURES)
    for name, payload in direct.items():
        assert canonical_json(payload) == canonical_json(
            tiny_pipeline.stages[name].payload
        ), f"stage {name} diverges from the direct call"
        assert scenario.stage_options(name) == {}  # parity needs no options here


def test_warm_cache_payloads_match_cold(tiny_pipeline, pipeline_cache):
    """Artifacts loaded from disk must reproduce the cold run byte for byte."""
    warm = run_pipeline("tiny", figures=PARITY_FIGURES, cache_dir=pipeline_cache)
    for name in PARITY_FIGURES:
        assert canonical_json(warm.stages[name].payload) == canonical_json(
            tiny_pipeline.stages[name].payload
        )


def test_parallel_stage_execution_matches_serial(tiny_pipeline, pipeline_cache):
    parallel = run_pipeline(
        "tiny", figures=PARITY_FIGURES, cache_dir=pipeline_cache, jobs=4
    )
    assert set(parallel.stages) == set(tiny_pipeline.stages)
    for name in PARITY_FIGURES:
        assert canonical_json(parallel.stages[name].payload) == canonical_json(
            tiny_pipeline.stages[name].payload
        )


def test_runner_writes_manifest_and_reports(tmp_path, tiny_pipeline, pipeline_cache):
    out = tmp_path / "out"
    result = run_pipeline(
        "tiny", figures=("fig02_03", "sec22"), cache_dir=pipeline_cache, out_dir=out
    )
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["scenario"]["name"] == "tiny"
    assert {stage["name"] for stage in manifest["stages"]} == {"fig02_03", "sec22"}
    for stage in manifest["stages"]:
        payload = canonical_json(result.stages[stage["name"]].payload)
        assert stage["digest"] == hashlib.sha256(payload.encode("utf-8")).hexdigest()
    for event in manifest["artifacts"]:
        assert event["status"] in ("built", "cached")
        assert len(event["key"]) == 16
    assert (out / "report.txt").read_text(encoding="utf-8") == result.rendered_report()
    for name in ("fig02_03", "sec22"):
        text = (out / f"{name}.txt").read_text(encoding="utf-8")
        assert name in text


def test_stage_timings_are_recorded(tiny_pipeline):
    for stage in tiny_pipeline.stages.values():
        assert stage.seconds >= 0.0
        assert stage.rendered
    assert tiny_pipeline.total_seconds >= tiny_pipeline.artifact_seconds >= 0.0


# ----------------------------------------------------------------------
# Stage execution: the process pool and failure collection
# ----------------------------------------------------------------------

#: Small stage subset whose artifact closure stays cheap on "tiny".
EXECUTOR_FIGURES = ("fig02_03", "sec22", "fig05")


class TestProcessExecutor:
    def test_process_payloads_match_serial(self, tiny_pipeline, pipeline_cache):
        result = run_pipeline(
            "tiny", figures=EXECUTOR_FIGURES, cache_dir=pipeline_cache, jobs=2
        )
        assert result.executor == "process"
        assert tiny_pipeline.executor == "serial"
        for name in EXECUTOR_FIGURES:
            assert canonical_json(result.stages[name].payload) == canonical_json(
                tiny_pipeline.stages[name].payload
            )
        # Warm process run rebuilt nothing: workers rehydrated from disk.
        assert result.recomputed_persistent_artifacts() == []

    def test_processes_need_jobs_a_cache_and_no_injected_resolver(self, pipeline_cache):
        def executor(**options):
            return run_pipeline("tiny", figures=EXECUTOR_FIGURES, **options).executor

        assert executor(cache_dir=pipeline_cache, jobs=2) == "process"
        assert executor(cache_dir=pipeline_cache, jobs=1) == "serial"
        # Without a disk cache every worker would rebuild every artifact.
        assert executor(jobs=2) == "serial"
        resolver = ArtifactResolver(get_scenario("tiny"), cache_dir=pipeline_cache)
        assert executor(cache_dir=pipeline_cache, jobs=2, resolver=resolver) == "serial"
        single = run_pipeline("tiny", figures=("sec22",), cache_dir=pipeline_cache, jobs=2)
        assert single.executor == "serial"

    def test_cpu_seconds_recorded_in_manifest(self, tmp_path, pipeline_cache):
        out = tmp_path / "out"
        result = run_pipeline(
            "tiny",
            figures=EXECUTOR_FIGURES,
            cache_dir=pipeline_cache,
            jobs=2,
            out_dir=out,
        )
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["executor"] == "process"
        for stage in manifest["stages"]:
            assert stage["error"] is None
            assert stage["cpu_seconds"] >= 0.0
        assert result.failures() == {}


class TestFailureCollection:
    @pytest.fixture
    def boom_stage(self, monkeypatch):
        """Replace one stage's function with a deterministic failure.

        The runner (and its process workers) look stages up through
        ``repro.experiments.runner.experiment_stages``; patch that symbol —
        patching the registry module would not reach the direct import.
        """
        from dataclasses import replace

        from repro.experiments.runner import experiment_stages as real_stages

        def boom(*args, **kwargs):
            raise ValueError("intentional boom")

        def patched():
            stages = dict(real_stages())
            stages["fig02_03"] = replace(stages["fig02_03"], fn=boom)
            return stages

        monkeypatch.setattr("repro.experiments.runner.experiment_stages", patched)
        return patched

    def test_strict_raises_after_writing_outputs(self, tmp_path, boom_stage, pipeline_cache):
        out = tmp_path / "out"
        with pytest.raises(PipelineStageError) as excinfo:
            run_pipeline(
                "tiny",
                figures=EXECUTOR_FIGURES,
                cache_dir=pipeline_cache,
                out_dir=out,
            )
        assert set(excinfo.value.failures) == {"fig02_03"}
        assert "intentional boom" in excinfo.value.failures["fig02_03"]
        # Outputs were written before the raise; survivors are intact.
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["executor"] == "serial"
        by_name = {stage["name"]: stage for stage in manifest["stages"]}
        assert by_name["fig02_03"]["error"] == "ValueError: intentional boom"
        for name in ("sec22", "fig05"):
            assert by_name[name]["error"] is None
            assert (out / f"{name}.txt").read_text(encoding="utf-8").strip()

    def test_non_strict_returns_failures(self, boom_stage, pipeline_cache):
        result = run_pipeline(
            "tiny",
            figures=EXECUTOR_FIGURES,
            cache_dir=pipeline_cache,
            strict=False,
        )
        assert result.failures() == {"fig02_03": "ValueError: intentional boom"}
        assert result.stages["fig02_03"].payload is None
        assert result.stages["fig02_03"].rendered == ""
        for name in ("sec22", "fig05"):
            assert result.stages[name].error is None
            assert result.stages[name].payload is not None

    def test_process_executor_collects_failures(self, boom_stage, pipeline_cache):
        result = run_pipeline(
            "tiny",
            figures=EXECUTOR_FIGURES,
            cache_dir=pipeline_cache,
            jobs=2,
            strict=False,
        )
        assert result.executor == "process"
        assert result.failures() == {"fig02_03": "ValueError: intentional boom"}
        for name in ("sec22", "fig05"):
            assert result.stages[name].error is None


@pytest.mark.parametrize("name", ["tiny", "churn"])
def test_warm_run_builds_no_event_objects_or_mutable_sans(name, tmp_path, monkeypatch):
    """A warm run and a cold validation read the event log and every graph as arrays.

    With the mutable ``SAN`` and ``ArrivalEvent`` constructors refusing to
    run, every stage of a warm run over a filled store must still pass and
    render the cold run's payload.  So must a cold ``run_validation`` into an
    empty store: the simulator keeps its live state in plain sets, and the
    crawl and the snapshot freeze work on arrays, so every answer-key
    assertion still holds.
    """
    from repro.graph.san import SAN
    from repro.models.history import ArrivalEvent

    scenario = get_scenario(name)
    cold = run_pipeline(scenario, cache_dir=tmp_path)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on an array-only path")

    monkeypatch.setattr(SAN, "__init__", refuse)
    monkeypatch.setattr(ArrivalEvent, "__init__", refuse)
    warm = run_pipeline(scenario, cache_dir=tmp_path)
    assert set(warm.stages) == set(experiment_names())
    for stage_name, stage in warm.stages.items():
        assert stage.error is None, stage_name
        assert canonical_json(stage.payload) == canonical_json(
            cold.stages[stage_name].payload
        ), stage_name

    validation = run_validation(scenario, cache_dir=tmp_path / "cold-validate")
    assert validation.pipeline.manifest()["cache"]["hits"] == 0
    assert validation.pipeline.failures() == {}
    assert validation.passed, [result.assertion.name for result in validation.failures()]

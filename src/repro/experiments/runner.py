"""The pipeline runner: one command reproduces the paper's full evaluation.

:func:`run_pipeline` takes a scenario (name or
:class:`~repro.experiments.scenarios.Scenario`), selects the requested stages
from the experiment registry, topologically materialises every artifact they
declare (freeze-once, content-addressed disk cache), and executes the stages
— optionally on a process pool, since stages only depend on artifacts and
never on each other.  Each stage's returned payload is rendered to the same
aligned text tables the figure benches write (via
:func:`~repro.experiments.report.render_payload`), and the whole run is
summarised in a JSON manifest: per-stage timings (wall-clock *and* CPU), the
executor used, per-artifact cache status (built vs cached), and the scenario
token that keyed the cache.

With ``jobs > 1`` and a disk cache, stages run on a *process* pool: each
worker process rehydrates the artifacts its stage needs from the
content-addressed store (stage payloads are picklable; artifacts never cross
the process boundary from the parent heap), so ``repro pipeline --jobs N``
uses N cores.  Without a disk cache every worker would rebuild every
artifact, so such runs stay serial whatever ``jobs`` says.  Per-stage failures
are collected — never silently dropped — and reported together with their
stage names after every surviving result has been written.

Output layout (``out_dir``)::

    manifest.json     run summary (stages with their payload digests,
                      artifacts, timings, scenario)
    report.txt        every stage's rendered tables, concatenated
    <stage>.txt       one rendered file per stage (fig04.txt, sec52.txt, ...)
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .artifacts import ArtifactResolver, artifact_topological_order
from .registry import ExperimentStage, experiment_stages, get_experiment
from .report import render_payload
from .scenarios import Scenario, get_scenario


def canonical_payload(payload: Any) -> Any:
    """A JSON-compatible canonical form of a stage payload.

    Tuples become lists and non-string mapping keys become strings (tuple
    keys like Figure 15's ``(alpha, beta)`` join with a comma), recursively.
    Two payloads are byte-identical iff their canonical JSON dumps are — the
    parity contract between pipeline runs and direct figure calls.
    """
    if isinstance(payload, Mapping):
        return {_canonical_key(key): canonical_payload(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [canonical_payload(item) for item in payload]
    return payload


def _canonical_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return ",".join(f"{part:g}" if isinstance(part, float) else str(part) for part in key)
    return str(key)


def canonical_json(payload: Any) -> str:
    """Canonical JSON text of a stage payload (sorted keys, no whitespace)."""
    return json.dumps(canonical_payload(payload), sort_keys=True, separators=(",", ":"))


class PipelineStageError(RuntimeError):
    """One or more pipeline stages failed (raised after outputs are written).

    ``failures`` maps each failed stage's name to its error string; the
    surviving stages' results were already written to the manifest/report
    before this was raised.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(failures)
        names = ", ".join(sorted(self.failures))
        super().__init__(f"{len(self.failures)} pipeline stage(s) failed: {names}")


@dataclass
class StageResult:
    """One executed pipeline stage: payload, rendering, timing, outcome.

    ``seconds`` is wall-clock; ``cpu_seconds`` is the executing thread's CPU
    time (``time.thread_time``), the stage's own work whether it ran in the
    parent or in a process worker.
    A failed stage carries ``error`` (exception type and message) with
    ``payload=None`` and an empty rendering.
    """

    name: str
    title: str
    needs: Sequence[str]
    payload: Any
    rendered: str
    seconds: float
    cpu_seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class PipelineResult:
    """A completed pipeline run."""

    scenario: Scenario
    stages: Dict[str, StageResult]
    resolver: ArtifactResolver
    jobs: int
    artifact_seconds: float
    total_seconds: float
    #: ``"serial"`` (in the calling process) or ``"process"`` (worker pool).
    executor: str = "serial"
    out_dir: Optional[Path] = None

    def failures(self) -> Dict[str, str]:
        """Failed stage name -> error string (empty when every stage passed)."""
        return {
            stage.name: stage.error
            for stage in self.stages.values()
            if stage.error is not None
        }

    def manifest(self) -> Dict[str, Any]:
        """JSON-serializable summary of the run (written as manifest.json)."""
        events = self.resolver.events
        return {
            "scenario": {"name": self.scenario.name, **self.scenario.cache_token()},
            "jobs": self.jobs,
            "executor": self.executor,
            "artifact_seconds": round(self.artifact_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "artifacts": [
                {
                    "name": event.name,
                    "key": event.key,
                    "status": event.status,
                    "persistent": event.persistent,
                    "seconds": round(event.seconds, 6),
                    "bytes": event.bytes,
                }
                for event in events
            ],
            "cache": {
                "hits": sum(1 for event in events if event.status == "cached"),
                "builds": sum(
                    1 for event in events if event.status == "built" and event.persistent
                ),
                "views": sum(
                    1 for event in events if event.status == "built" and not event.persistent
                ),
            },
            "stages": [
                {
                    "name": stage.name,
                    "title": stage.title,
                    "needs": list(stage.needs),
                    "seconds": round(stage.seconds, 6),
                    "cpu_seconds": round(stage.cpu_seconds, 6),
                    "error": stage.error,
                }
                for stage in self.stages.values()
            ],
        }

    def rendered_report(self) -> str:
        """Every surviving stage's rendered tables, concatenated in run order."""
        parts = [stage.rendered for stage in self.stages.values() if stage.rendered]
        return "\n\n".join(parts) + "\n"

    def recomputed_persistent_artifacts(self) -> List[str]:
        """Persistent artifacts this run had to build (empty on a warm cache)."""
        return [
            event.name
            for event in self.resolver.events
            if event.status == "built" and event.persistent
        ]


def select_stages(figures: Optional[Sequence[str]] = None) -> List[ExperimentStage]:
    """The stages a pipeline run will execute, in registry (figure) order.

    ``figures=None`` selects the full suite; otherwise names are validated
    against the registry (:class:`~.registry.UnknownExperimentError`) and
    returned in registry order regardless of the requested order.
    """
    stages = experiment_stages()
    if figures is None:
        return list(stages.values())
    wanted = {get_experiment(name).name for name in figures}
    return [stage for stage in stages.values() if stage.name in wanted]


def pipeline_artifact_plan(stages: Sequence[ExperimentStage]) -> List[str]:
    """Topological build order of every artifact the given stages declare.

    Validates the stage->artifact edges (unknown artifacts raise
    :class:`~.artifacts.UnknownArtifactError`) and the artifact->artifact
    edges (cycles raise :class:`~.artifacts.ArtifactCycleError`).
    """
    needed: List[str] = []
    for stage in stages:
        for name in stage.needs:
            if name not in needed:
                needed.append(name)
    return artifact_topological_order(needed)


def _execute_stage(
    stage: ExperimentStage, resolver: ArtifactResolver, scenario: Scenario
) -> StageResult:
    """Run one stage against a resolver, capturing timing and any failure."""
    stage_started = time.perf_counter()
    cpu_started = time.thread_time()
    payload: Any = None
    rendered = ""
    error: Optional[str] = None
    try:
        inputs = [resolver.artifact(name) for name in stage.needs]
        options = scenario.stage_options(stage.name)
        payload = stage.fn(*inputs, **options)
        rendered = render_payload(payload, title=f"{stage.name} — {stage.title}")
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return StageResult(
        name=stage.name,
        title=stage.title,
        needs=stage.needs,
        payload=payload,
        rendered=rendered,
        seconds=time.perf_counter() - stage_started,
        cpu_seconds=time.thread_time() - cpu_started,
        error=error,
    )


#: Per-worker resolver cache, keyed by (scenario cache token, cache dir) so a
#: long-lived worker process reuses its rehydrated artifacts across the
#: stages it executes instead of re-reading the store per stage.
_worker_resolvers: Dict[Tuple[str, str], ArtifactResolver] = {}


def _stage_worker(stage_name: str, scenario: Scenario, cache_dir: str) -> StageResult:
    """Process-pool entry point: execute one stage by name in this worker.

    The stage is looked up in the worker's own registry (stage functions are
    not pickled) and its artifacts are rehydrated from the content-addressed
    disk store — nothing graph-sized crosses the process boundary; only the
    stage's payload comes back.
    """
    stage = experiment_stages()[stage_name]
    key = (json.dumps(scenario.cache_token(), sort_keys=True), cache_dir)
    resolver = _worker_resolvers.get(key)
    if resolver is None:
        _worker_resolvers.clear()  # a worker serves one pipeline run at a time
        resolver = ArtifactResolver(scenario, cache_dir=cache_dir)
        _worker_resolvers[key] = resolver
    return _execute_stage(stage, resolver, scenario)


def run_pipeline(
    scenario: Union[str, Scenario],
    figures: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    resolver: Optional[ArtifactResolver] = None,
    strict: bool = True,
) -> PipelineResult:
    """Run the declarative experiment pipeline for one scenario.

    Parameters
    ----------
    scenario:
        A preset name (``"paper-default"``, ``"tiny"``, ...) or a
        :class:`~.scenarios.Scenario` instance.
    figures:
        Stage names to run (default: the full suite).
    jobs:
        Worker processes for the stages.  Stages are mutually independent
        once artifacts are materialised, so any subset may run concurrently;
        artifact resolution itself is sequential (dependencies chain).
        Stages run serially unless ``jobs > 1``, at least two stages are
        selected, ``cache_dir`` is given and no ``resolver`` is injected.
    cache_dir:
        Root of the content-addressed artifact store.  ``None`` shares
        artifacts in memory only (nothing is written or read).
    out_dir:
        Where to write ``manifest.json``, ``report.txt`` and the per-stage
        renderings.  ``None`` skips writing.
    resolver:
        Pre-populated resolver to reuse (tests; overrides ``cache_dir``).
    strict:
        When ``True`` (default), stage failures raise
        :class:`PipelineStageError` — *after* all outputs (including the
        surviving stages' results) are written.  ``False`` returns the
        :class:`PipelineResult` with per-stage ``error`` fields instead.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    stages = select_stages(figures)
    plan = pipeline_artifact_plan(stages)
    # Workers rehydrate artifacts from the disk store, so a pool needs one,
    # and an injected resolver's artifacts exist only in this process.
    use_processes = (
        jobs > 1 and len(stages) > 1 and cache_dir is not None and resolver is None
    )
    if resolver is None:
        resolver = ArtifactResolver(scenario, cache_dir=cache_dir)
    started = time.perf_counter()

    # Materialise only what the stages read: every artifact resolves its
    # own inputs while it is built, so a cold run still builds (and stores)
    # the whole closure, while a warm run never loads an intermediate that
    # no stage names.
    needed = {name for stage in stages for name in stage.needs}
    for name in plan:
        if name in needed:
            resolver.artifact(name)
    artifact_seconds = time.perf_counter() - started

    if use_processes:
        results = _run_stages_processes(stages, scenario, cache_dir, jobs)
    else:
        results = [_execute_stage(stage, resolver, scenario) for stage in stages]

    result = PipelineResult(
        scenario=scenario,
        stages={stage_result.name: stage_result for stage_result in results},
        resolver=resolver,
        jobs=jobs,
        artifact_seconds=artifact_seconds,
        total_seconds=time.perf_counter() - started,
        executor="process" if use_processes else "serial",
    )
    if out_dir is not None:
        result.out_dir = write_outputs(result, out_dir)
    failures = result.failures()
    if failures and strict:
        raise PipelineStageError(failures)
    return result


def _run_stages_processes(
    stages: Sequence[ExperimentStage],
    scenario: Scenario,
    cache_dir: Union[str, Path],
    jobs: int,
) -> List[StageResult]:
    """Execute stages on a process pool, one future per stage, order preserved.

    A worker-side stage failure comes back inside its ``StageResult``; an
    infrastructure failure (a worker killed, a payload that cannot pickle)
    is converted into a failed ``StageResult`` for that stage so sibling
    stages still report.
    """
    cache = str(cache_dir)
    try:
        context = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = get_context("spawn")
    results: List[StageResult] = []
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        futures = [
            pool.submit(_stage_worker, stage.name, scenario, cache) for stage in stages
        ]
        for stage, future in zip(stages, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                results.append(
                    StageResult(
                        name=stage.name,
                        title=stage.title,
                        needs=stage.needs,
                        payload=None,
                        rendered="",
                        seconds=0.0,
                        cpu_seconds=0.0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return results


def write_outputs(result: PipelineResult, out_dir: Union[str, Path]) -> Path:
    """Write manifest.json, report.txt and per-stage renderings to ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = result.manifest()
    # Each stage's ``digest`` is the SHA-256 of its canonical JSON payload:
    # two runs agree on every bit of a payload iff they agree on its digest,
    # which the 6-digit renderings cannot show.  Computed only here, so a run
    # without ``out_dir`` pays nothing for it.
    for entry, stage in zip(manifest["stages"], result.stages.values()):
        entry["digest"] = (
            None
            if stage.error is not None
            else hashlib.sha256(canonical_json(stage.payload).encode("utf-8")).hexdigest()
        )
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text(result.rendered_report(), encoding="utf-8")
    for stage in result.stages.values():
        (out / f"{stage.name}.txt").write_text(stage.rendered + "\n", encoding="utf-8")
    return out

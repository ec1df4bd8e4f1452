"""Pipeline benchmark: cached+frozen full-suite run vs naive re-derivation.

The pre-pipeline world ran each figure from a pytest-benchmark file that
derived its own inputs; the pipeline materialises every shared artifact once,
caches it content-addressed on disk, and feeds the figure stages frozen
CSR-backed views.  This bench runs the **full suite** both ways on the same
scenario:

* **naive** — per stage, a fresh in-memory resolver re-derives the stage's
  whole artifact closure (simulate, crawl, estimate, generate) and the stage
  runs on it: the old one-figure-at-a-time cost model;
* **cached** — a warm :func:`repro.experiments.run_pipeline` over a
  pre-populated artifact store: every artifact loads from disk, no recompute.

The cached run must be >= 3x faster at the canonical ``paper-default``
workload while producing byte-identical payloads for every stage — and must
not rebuild a single persistent artifact.  ``BENCH_PIPELINE_SCENARIO``
scales the workload; smaller smoke runs (``small``, ``tiny``) assert
reduced floors because stage self-time (the figure fits) dominates before
the artifact closures have grown.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import (
    ArtifactResolver,
    canonical_json,
    experiment_stages,
    format_table,
    get_scenario,
    run_pipeline,
)

SCENARIO = os.environ.get("BENCH_PIPELINE_SCENARIO", "paper-default")

#: Acceptance bar: >= 3x at the canonical paper-default workload, where the
#: per-figure artifact closures (simulate + crawl + estimate + generate)
#: dominate.  Smaller smoke scales assert reduced floors because stage
#: self-time (the distribution fits) dominates before the closures have
#: grown: ~2x at small, and only payload/cache correctness at tiny.
REQUIRED_SPEEDUP = {"tiny": 1.2, "small": 2.0}.get(SCENARIO, 3.0)


def test_pipeline_cached_run_vs_naive_rederivation(tmp_path_factory, write_result, results_dir):
    scenario = get_scenario(SCENARIO)
    cache_dir = tmp_path_factory.mktemp("pipeline-cache")

    # Cold run: populates the content-addressed store (not part of the race).
    cold = run_pipeline(scenario, cache_dir=cache_dir)

    # Cached+frozen full-suite run: every artifact must load, none rebuild.
    warm_start = time.perf_counter()
    warm = run_pipeline(scenario, cache_dir=cache_dir)
    warm_seconds = time.perf_counter() - warm_start

    # Naive per-figure re-derivation: a fresh resolver per stage, no sharing.
    naive_start = time.perf_counter()
    naive_payloads = {}
    for stage in experiment_stages().values():
        resolver = ArtifactResolver(scenario)
        inputs = [resolver.artifact(name) for name in stage.needs]
        naive_payloads[stage.name] = stage.fn(
            *inputs, **scenario.stage_options(stage.name)
        )
    naive_seconds = time.perf_counter() - naive_start

    speedup = naive_seconds / warm_seconds
    rebuilt = warm.recomputed_persistent_artifacts()
    mismatched = [
        name
        for name in warm.stages
        if canonical_json(warm.stages[name].payload)
        != canonical_json(naive_payloads[name])
    ]

    # Write the result artifacts *before* asserting so a failing run still
    # leaves its numbers in benchmarks/results/ for inspection.
    payload = {
        "scenario": SCENARIO,
        "stages": len(warm.stages),
        "naive_seconds": round(naive_seconds, 3),
        "cached_seconds": round(warm_seconds, 3),
        "cold_seconds": round(cold.total_seconds, 3),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "warm_rebuilt_artifacts": rebuilt,
        "mismatched_stages": mismatched,
    }
    (results_dir / "bench_pipeline.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_result(
        "bench_pipeline",
        format_table(
            [
                {"mode": "naive per-figure", "total_s": round(naive_seconds, 2)},
                {"mode": "pipeline cold (build cache)", "total_s": round(cold.total_seconds, 2)},
                {"mode": "pipeline warm (cached+frozen)", "total_s": round(warm_seconds, 2)},
            ],
            title=(
                f"Full figure suite ({len(warm.stages)} stages, scenario "
                f"{SCENARIO}) — cached speedup {speedup:.1f}x"
            ),
        ),
    )

    # A warm cache recomputes no artifact and reproduces every payload.
    assert rebuilt == [], f"warm run rebuilt artifacts: {rebuilt}"
    assert not mismatched, f"cached payloads diverge from naive: {mismatched}"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cached full-suite run: expected >= {REQUIRED_SPEEDUP}x over naive "
        f"re-derivation at scenario {SCENARIO!r}, got {speedup:.1f}x"
    )


def test_pipeline_parallel_stages_match_serial(tmp_path_factory, write_result):
    """--jobs changes wall-clock, never payloads."""
    scenario = get_scenario("tiny")
    cache_dir = tmp_path_factory.mktemp("pipeline-jobs-cache")
    serial = run_pipeline(scenario, cache_dir=cache_dir, jobs=1)
    parallel = run_pipeline(scenario, cache_dir=cache_dir, jobs=4)
    mismatched = [
        name
        for name in serial.stages
        if canonical_json(serial.stages[name].payload)
        != canonical_json(parallel.stages[name].payload)
    ]
    write_result(
        "bench_pipeline_jobs",
        format_table(
            [
                {"jobs": 1, "total_s": round(serial.total_seconds, 2)},
                {"jobs": 4, "total_s": round(parallel.total_seconds, 2)},
            ],
            title="Pipeline stage execution — serial vs 4 worker processes (tiny)",
        ),
    )
    assert not mismatched, f"parallel payloads diverge: {mismatched}"

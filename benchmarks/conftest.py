"""Shared fixtures for the benchmark harness.

The benchmarks reproduce every figure of the paper on the synthetic Google+
substrate.  All expensive inputs (the simulated evolution, the crawled
snapshot series, the generated model SANs) come from the experiment
pipeline's artifact layer: one session-scoped
:class:`~repro.experiments.ArtifactResolver` materialises each shared
artifact exactly once and every fixture below is a thin lookup into it — the
same artifact DAG ``repro pipeline`` runs, so the benches and the pipeline
measure identical inputs.  ``BENCH_SCENARIO`` selects the scenario preset
(default: ``small``, the historical bench workload).  Rendered result tables
are written to ``benchmarks/results/`` so the reproduced rows/series are
inspectable after a run regardless of pytest output capture.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import ArtifactResolver, get_scenario

RESULTS_DIR = Path(__file__).parent / "results"

# The engine benches compare the production generator and scorer with the
# loop references that live beside the tests (tests/model_reference.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

#: Scenario preset every measurement bench runs under.
BENCH_SCENARIO = os.environ.get("BENCH_SCENARIO", "small")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    """Write a rendered experiment report to benchmarks/results/<name>.txt."""

    def _write(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _write


@pytest.fixture(scope="session")
def scenario():
    """The scenario preset the whole bench session runs under."""
    return get_scenario(BENCH_SCENARIO)


@pytest.fixture(scope="session")
def artifacts(scenario) -> ArtifactResolver:
    """Session-shared artifact resolver (in-memory; each input built once)."""
    return ArtifactResolver(scenario)


@pytest.fixture(scope="session")
def evolution(artifacts):
    """The simulated Google+ evolution used by every measurement bench."""
    return artifacts.artifact("evolution")


@pytest.fixture(scope="session")
def snapshot_series(artifacts):
    """Crawled daily snapshots (the analogue of the paper's 79 crawls)."""
    return artifacts.artifact("snapshot_series")


@pytest.fixture(scope="session")
def snapshots(artifacts):
    return artifacts.artifact("snapshots")


@pytest.fixture(scope="session")
def reference_san(artifacts):
    """The last crawled snapshot — the reference the models are fitted against."""
    return artifacts.artifact("reference_san")


@pytest.fixture(scope="session")
def halfway_san(artifacts):
    return artifacts.artifact("halfway_san")


@pytest.fixture(scope="session")
def estimated_parameters(artifacts):
    """Model parameters estimated from the reference SAN (guided initialisation)."""
    return artifacts.artifact("estimated_parameters")


@pytest.fixture(scope="session")
def model_run(artifacts):
    """Our model fitted to the reference SAN (``.san`` view of the artifact)."""
    return SimpleNamespace(san=artifacts.artifact("model_san"))


@pytest.fixture(scope="session")
def model_run_no_focal(artifacts):
    return SimpleNamespace(san=artifacts.artifact("model_no_focal_san"))


@pytest.fixture(scope="session")
def model_run_no_lapa(artifacts):
    return SimpleNamespace(san=artifacts.artifact("model_no_lapa_san"))


@pytest.fixture(scope="session")
def zhel_san(artifacts):
    """The directed Zhel baseline sized to the same number of social nodes."""
    return artifacts.artifact("zhel_san")

"""``repro validate``: the per-scenario fidelity gate over the pipeline DAG.

Two pieces turn the answer keys of :mod:`.answer_keys` into a regression
gate:

* The ``fidelity`` *validation stage* — a regular experiment stage
  (:func:`fidelity_metrics`) computing the adversarial/churn/crawl signals
  the figure stages don't cover: Sybil attack-edge structure and the
  trust-ranking separation between honest and Sybil users,
  removal-event counts from the attribute-churn regime, the burstiness of
  the arrival schedule, and crawler edge coverage against the ground truth.
  Because it is a stage over the ``evolution`` / ``reference_san``
  artifacts, it reuses the content-addressed cache like any figure.

* :func:`run_validation` — materialise exactly the stages a scenario's
  answer key references (via :func:`~.runner.run_pipeline`, so a warm cache
  rebuilds nothing), evaluate every key assertion against the canonical
  stage payloads, and emit a pass/fail report plus a JSON manifest naming
  each violated assertion.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..graph.frozen import FrozenSAN, pair_order
from ..models.history import (
    EVENT_KINDS,
    KIND_ATTRIBUTE,
    KIND_ATTRIBUTE_REMOVE,
    KIND_NODE,
    KIND_SOCIAL_REMOVE,
)
from ..synthetic.gplus import GroundTruthEvolution
from .answer_keys import (
    AnswerKey,
    AssertionResult,
    answer_key_path,
    evaluate_answer_key,
    load_answer_key,
)
from .artifacts import ArtifactResolver
from .registry import experiment
from .runner import PipelineResult, canonical_payload, run_pipeline
from .scenarios import Scenario, get_scenario

PathLike = Union[str, Path]

#: Trusted seeds of the ranking probe (the paper's crawl also used a handful
#: of well-connected seed users).
_TRUST_SEEDS = 10


def _median(values: Sequence[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _trust_ranking(final: FrozenSAN, is_sybil: np.ndarray) -> Dict[str, Optional[float]]:
    """Degree-normalised trust from early-terminated propagation (SybilRank).

    Trust mass starts on the highest-degree honest seeds and spreads over the
    undirected social graph for ``O(log n)`` rounds — too few for the mass to
    squeeze through the thin attack-edge band into the Sybil region.  The
    degree-normalised landing probability then ranks honest users above
    Sybils; the probe is fully deterministic (power iteration, no sampling).

    The undirected adjacency counts every link from both ends, so a
    reciprocal pair (or a self-loop) appears twice.  Its entries are sorted
    by (row, column) and stay unsummed, so each round's ``np.bincount``
    adds a user's incoming shares in ascending order of the sharing user:
    the same float sums, term for term, as a per-user loop.
    """
    social = final.social
    n = social.number_of_nodes()
    sources, targets = social.edge_arrays()
    rows = np.concatenate([sources, targets])
    columns = np.concatenate([targets, sources])
    order = pair_order(rows, columns)
    rows, columns = rows[order], columns[order]
    degree = np.bincount(rows, minlength=n)

    labels = social.labels()
    honest = np.flatnonzero(~is_sybil & (degree > 0)).tolist()
    seeds = sorted(honest, key=lambda node: (-degree[node], str(labels[node])))
    seeds = seeds[:_TRUST_SEEDS]
    if not seeds:
        return {
            "honest_trust_median": None,
            "sybil_trust_median": None,
            "ranking_separation": None,
            "sybil_tail_fraction": None,
        }
    trust = np.zeros(n)
    trust[seeds] = 1.0 / len(seeds)
    connected = degree > 0
    for _ in range(max(2, int(math.log2(max(n, 2))))):
        share = np.divide(trust, degree, out=np.zeros(n), where=connected)
        trust = np.bincount(columns, weights=share[rows], minlength=n)
    score = np.divide(trust, degree, out=np.zeros(n), where=connected)

    honest_scores = score[~is_sybil & connected].tolist()
    sybil_scores = score[is_sybil & connected].tolist()
    honest_median = _median(honest_scores)
    sybil_median = _median(sybil_scores)
    separation = None
    if honest_median is not None and sybil_median is not None:
        separation = honest_median / sybil_median if sybil_median > 0 else math.inf
    tail_fraction = None
    if sybil_scores:
        # Fraction of Sybils the ranking pushes into the bottom |S| positions,
        # ranked over the users with a link: the population the medians and
        # |S| count (isolated users score 0 and would crowd the tail).
        reachable = np.flatnonzero(connected)
        ranked = reachable[np.argsort(score[reachable], kind="stable")]
        tail = ranked[: len(sybil_scores)]
        tail_fraction = int(np.count_nonzero(is_sybil[tail])) / len(sybil_scores)
    return {
        "honest_trust_median": honest_median,
        "sybil_trust_median": sybil_median,
        "ranking_separation": separation,
        "sybil_tail_fraction": tail_fraction,
    }


@experiment(
    "fidelity",
    needs=("evolution", "reference_san"),
    title="Scenario fidelity metrics (validation stage)",
)
def fidelity_metrics(
    evolution: GroundTruthEvolution,
    reference: FrozenSAN,
) -> Dict[str, object]:
    """Adversarial/churn/crawl fidelity signals of one simulated scenario.

    The payload is the metric surface the answer keys assert on: Sybil
    attack-edge structure plus the trust-ranking separation, removal event
    counts (attribute churn), arrival burstiness, and the crawler's edge
    coverage of the ground truth.  Fully deterministic — no sampling.  It
    reads the evolution's final ground truth and its event columns: a Sybil
    mask over the final CSR classifies the links, and ``np.bincount`` over
    the kind and day columns counts the events.
    """
    final = evolution.final_san()
    n = final.number_of_social_nodes()
    sybils = evolution.sybil[(evolution.sybil >= 0) & (evolution.sybil < n)]
    is_sybil = np.zeros(n, dtype=bool)
    is_sybil[sybils] = True

    sources, targets = final.social.edge_arrays()
    source_sybil = is_sybil[sources]
    target_sybil = is_sybil[targets]
    intra_sybil_edges = int(np.count_nonzero(source_sybil & target_sybil))
    attack_edges = int(np.count_nonzero(source_sybil ^ target_sybil))
    total_edges = int(sources.size)

    ranking = _trust_ranking(final, is_sybil)

    counts = np.bincount(evolution.kind, minlength=len(EVENT_KINDS)).tolist()
    node_adds = counts[KIND_NODE]
    attribute_adds = counts[KIND_ATTRIBUTE]
    attribute_removals = counts[KIND_ATTRIBUTE_REMOVE]
    social_removals = counts[KIND_SOCIAL_REMOVE]
    joins = evolution.day[evolution.kind == KIND_NODE]
    daily = np.bincount(joins, minlength=evolution.num_days + 1).tolist()
    daily_arrivals = list(enumerate(daily))[1:]

    ordered = sorted(count for _, count in daily_arrivals)
    peak = ordered[-1] if ordered else 0
    median = ordered[len(ordered) // 2] if ordered else 0
    peak_to_median = peak / median if median else float(peak)

    true_social = final.number_of_social_edges()
    true_attribute = final.number_of_attribute_edges()
    crawled_social = reference.number_of_social_edges()
    crawled_attribute = reference.number_of_attribute_edges()

    return {
        "sybil": {
            "num_sybils": int(sybils.size),
            "num_honest": n - int(np.count_nonzero(is_sybil)),
            "attack_edges": attack_edges,
            "intra_sybil_edges": intra_sybil_edges,
            "attack_edge_fraction": attack_edges / total_edges if total_edges else 0.0,
            "honest_trust_median": ranking["honest_trust_median"],
            "sybil_trust_median": ranking["sybil_trust_median"],
            "ranking_separation": ranking["ranking_separation"],
            "sybil_tail_fraction": ranking["sybil_tail_fraction"],
        },
        "churn": {
            "attribute_adds": attribute_adds,
            "attribute_removals": attribute_removals,
            "social_removals": social_removals,
            "removal_fraction": (
                attribute_removals / attribute_adds if attribute_adds else 0.0
            ),
        },
        "arrivals": {
            "total": node_adds,
            "daily": daily_arrivals,
            "peak_to_median": peak_to_median,
        },
        "crawl": {
            "true_social_edges": true_social,
            "crawled_social_edges": crawled_social,
            "social_coverage": crawled_social / true_social if true_social else 1.0,
            "true_attribute_edges": true_attribute,
            "crawled_attribute_edges": crawled_attribute,
            "attribute_coverage": (
                crawled_attribute / true_attribute if true_attribute else 1.0
            ),
        },
    }


@dataclass
class ValidationResult:
    """One validated scenario: assertion verdicts plus the pipeline run."""

    scenario: Scenario
    key: AnswerKey
    results: List[AssertionResult]
    pipeline: PipelineResult
    key_path: Optional[Path] = None
    total_seconds: float = 0.0
    out_dir: Optional[Path] = None

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> List[AssertionResult]:
        """Every violated assertion, in key order."""
        return [result for result in self.results if not result.passed]

    def manifest(self) -> Dict[str, Any]:
        """JSON-serializable validation summary (written as validation.json)."""
        pipeline_manifest = self.pipeline.manifest()
        return {
            "scenario": pipeline_manifest["scenario"],
            "key_path": str(self.key_path) if self.key_path is not None else None,
            "passed": self.passed,
            "assertions": [result.to_document() for result in self.results],
            "stages": self.key.stages(),
            "cache": pipeline_manifest["cache"],
            "artifact_seconds": pipeline_manifest["artifact_seconds"],
            "total_seconds": round(self.total_seconds, 6),
        }

    def rendered(self) -> str:
        """The human-readable pass/fail report (written as validation.txt)."""
        cache = self.pipeline.manifest()["cache"]
        lines = [
            f"validate scenario={self.scenario.name}"
            + (f"  key={self.key_path}" if self.key_path is not None else ""),
        ]
        width = max(len(result.assertion.name) for result in self.results)
        for result in self.results:
            verdict = "PASS" if result.passed else "FAIL"
            lines.append(
                f"  {verdict} {result.assertion.name:<{width}}  "
                f"{result.assertion.metric}  {result.detail}"
            )
        passed = sum(1 for result in self.results if result.passed)
        lines.append(
            f"{passed}/{len(self.results)} assertions passed; artifacts: "
            f"{cache['hits']} cached, {cache['builds']} built, {cache['views']} views"
        )
        return "\n".join(lines)


def run_validation(
    scenario: Union[str, Scenario],
    key: Optional[AnswerKey] = None,
    keys_dir: Optional[PathLike] = None,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    out_dir: Optional[PathLike] = None,
    resolver: Optional[ArtifactResolver] = None,
) -> ValidationResult:
    """Validate one scenario against its answer key.

    Materialises exactly the stages the key references (through
    :func:`~.runner.run_pipeline`, so every shared artifact comes from the
    content-addressed cache when warm), evaluates every assertion, and —
    with ``out_dir`` — writes ``validation.json`` and ``validation.txt``.

    Raises :class:`~.answer_keys.UnknownAnswerKeyError` when no key is
    checked in for the scenario and none is passed explicitly; assertion
    *failures* never raise — they are reported in the returned
    :class:`ValidationResult`.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    started = time.perf_counter()
    key_path: Optional[Path] = None
    if key is None:
        key_path = answer_key_path(scenario.name, keys_dir)
        key = load_answer_key(scenario.name, keys_dir)
    pipeline = run_pipeline(
        scenario,
        figures=key.stages(),
        jobs=jobs,
        cache_dir=cache_dir,
        resolver=resolver,
    )
    payloads = {
        name: canonical_payload(stage.payload)
        for name, stage in pipeline.stages.items()
    }
    results = evaluate_answer_key(key, payloads)
    validation = ValidationResult(
        scenario=scenario,
        key=key,
        results=results,
        pipeline=pipeline,
        key_path=key_path,
        total_seconds=time.perf_counter() - started,
    )
    if out_dir is not None:
        validation.out_dir = write_validation_outputs(validation, out_dir)
    return validation


def write_validation_outputs(result: ValidationResult, out_dir: PathLike) -> Path:
    """Write ``validation.json`` and ``validation.txt`` to ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validation.json").write_text(
        json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "validation.txt").write_text(result.rendered() + "\n", encoding="utf-8")
    return out

"""Canonical workload configurations shared by tests, examples, and benches.

Every benchmark that needs a synthetic Google+ evolution uses one of these
presets so results are comparable across benches and reruns; each bench writes
what it measured on them to ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..graph.frozen import FrozenSAN
from ..metrics.evolution import PhaseBoundaries
from ..models.parameters import SANModelParameters
from ..utils.rng import RngLike
from .gplus import (
    FlashCrowdDay,
    GooglePlusConfig,
    GroundTruthEvolution,
    SybilWaveDay,
    simulate_google_plus,
)

#: Default seed used by the benchmarks; the answer keys under ``benchmarks/keys/``
#: hold at this seed.
BENCH_SEED = 20120835  # arXiv id of the paper


def tiny_config(num_days: int = 40) -> GooglePlusConfig:
    """A few hundred users — fast enough for unit tests."""
    return GooglePlusConfig(
        total_users=400,
        num_days=num_days,
        phases=PhaseBoundaries(phase_one_end=10, phase_two_end=30),
    )


def small_config() -> GooglePlusConfig:
    """~1.5k users over 98 days — integration tests and quick examples."""
    return GooglePlusConfig(total_users=1500, num_days=98)


def default_config() -> GooglePlusConfig:
    """~4k users over 98 days — the standard benchmark workload."""
    return GooglePlusConfig(total_users=4000, num_days=98)


def large_config() -> GooglePlusConfig:
    """~10k users — for benches that want more statistical resolution."""
    return GooglePlusConfig(total_users=10000, num_days=98)


def sparse_config() -> GooglePlusConfig:
    """A sparse regime: small link budgets, long link spread, few declarations.

    Exercises the low-density corner of the pipeline (weak closure signals,
    many leaf nodes) without changing the three-phase timeline.
    """
    return GooglePlusConfig(
        total_users=1500,
        num_days=98,
        degree_mu=1.0,
        degree_sigma=0.9,
        link_spread_days=40.0,
        declare_probability=0.12,
    )


def dense_config() -> GooglePlusConfig:
    """A dense regime: large link budgets and strong closure.

    Produces a much higher social density and clustering than the Google+
    defaults — the stress case for the triangle/clustering kernels.
    """
    return GooglePlusConfig(
        total_users=1500,
        num_days=98,
        degree_mu=2.2,
        degree_sigma=1.1,
        link_spread_days=12.0,
        triadic_probability=0.6,
        focal_probability=0.2,
        declare_probability=0.35,
    )


def high_reciprocity_config() -> GooglePlusConfig:
    """A high-reciprocity regime: most links are (eventually) mutual.

    Pushes the per-link reciprocation rates towards the levels of mutual-link
    networks (Facebook-like), which stresses the reciprocity/influence
    figures far from the Google+ operating point.
    """
    return GooglePlusConfig(
        total_users=1500,
        num_days=98,
        reciprocation_phase1=0.75,
        reciprocation_phase2=0.65,
        reciprocation_phase3=0.55,
        delayed_reciprocation_probability=0.25,
        shared_attribute_reciprocation_boost=1.8,
    )


def sybil_wave_config(num_days: int = 40) -> GooglePlusConfig:
    """Tiny workload plus two Sybil infiltration waves (Section 6.3 attack).

    The waves inject ~15% fake identities whose only honest contact is a thin
    band of attack edges — the regime the ranking defense must separate.
    """
    return GooglePlusConfig(
        total_users=400,
        num_days=num_days,
        phases=PhaseBoundaries(phase_one_end=10, phase_two_end=30),
        sybil_waves=(
            SybilWaveDay(day=20, num_sybils=30, attack_edges_per_sybil=2, intra_links=60),
            SybilWaveDay(day=32, num_sybils=30, attack_edges_per_sybil=1, intra_links=60),
        ),
    )


def churn_config(num_days: int = 40) -> GooglePlusConfig:
    """Tiny workload with heavy attribute churn (users changing employers).

    ~3 churn events/day over 40 days rewrites a visible fraction of the
    attribute links, exercising the edge-removal (tombstone) paths of every
    snapshot backend.
    """
    return GooglePlusConfig(
        total_users=400,
        num_days=num_days,
        phases=PhaseBoundaries(phase_one_end=10, phase_two_end=30),
        attribute_churn_rate=3.0,
    )


def flash_crowd_config(num_days: int = 40) -> GooglePlusConfig:
    """Tiny workload with two arrival bursts breaking the three-phase schedule.

    Each burst adds ~20% of the steady-state population in a single day —
    the growth curve keeps its phase structure but with sharp spikes.
    """
    return GooglePlusConfig(
        total_users=400,
        num_days=num_days,
        phases=PhaseBoundaries(phase_one_end=10, phase_two_end=30),
        flash_crowds=(
            FlashCrowdDay(day=15, arrivals=80),
            FlashCrowdDay(day=33, arrivals=80),
        ),
    )


@dataclass
class EvolutionWorkload:
    """A simulated evolution plus the standard snapshot days used by benches."""

    evolution: GroundTruthEvolution
    snapshot_days: List[int]

    def final_san(self) -> FrozenSAN:
        return self.evolution.final_san()


def standard_snapshot_days(num_days: int, count: int = 14) -> List[int]:
    """Evenly spaced snapshot days including the first and last day."""
    if count <= 1 or num_days <= 1:
        return [num_days]
    step = (num_days - 1) / (count - 1)
    days = sorted({int(round(1 + index * step)) for index in range(count)})
    if days[-1] != num_days:
        days[-1] = num_days
    return days


def generative_params(steps: int = 50_000) -> SANModelParameters:
    """Canonical Algorithm 1 parameters for the generation benches.

    The paper's defaults at a configurable step count; used by
    ``benchmarks/bench_generative.py``, ``benchmarks/bench_likelihood.py``
    and the CI benchmark smoke leg, so the comparisons of the production code
    with its loop references always run the same workload.
    """
    return SANModelParameters(steps=steps)


def build_workload(
    config: Optional[GooglePlusConfig] = None,
    rng: RngLike = BENCH_SEED,
    snapshot_count: int = 14,
) -> EvolutionWorkload:
    """Simulate an evolution and pair it with its standard snapshot days."""
    chosen = config if config is not None else default_config()
    evolution = simulate_google_plus(chosen, rng=rng)
    days = standard_snapshot_days(chosen.num_days, count=snapshot_count)
    return EvolutionWorkload(evolution=evolution, snapshot_days=days)

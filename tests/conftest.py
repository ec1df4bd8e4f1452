"""Shared fixtures for the test suite.

Expensive objects (simulated evolutions, generated model runs, crawled
snapshot series) are session-scoped so the full suite stays fast while every
module still gets realistic inputs.
"""

from __future__ import annotations

import random

import pytest

from repro.crawler import crawl_evolution
from repro.graph import SAN, san_from_edge_lists
from repro.metrics.evolution import PhaseBoundaries
from repro.models import SANModelParameters, ZhelModelParameters, generate_san, generate_zhel_san
from repro.synthetic import GooglePlusConfig, simulate_google_plus, standard_snapshot_days


@pytest.fixture
def empty_san() -> SAN:
    return SAN()


@pytest.fixture
def figure1_san() -> SAN:
    """A small SAN in the spirit of the paper's Figure 1.

    Six social nodes (1..6), four attribute nodes, and a mix of reciprocal and
    one-way social links so that reciprocity, clustering and closure metrics
    all have non-trivial values.
    """
    social_edges = [
        (1, 2), (2, 1),          # reciprocal pair
        (2, 3), (3, 2),          # reciprocal pair
        (1, 3),                  # one-way
        (4, 2),                  # one-way (triadic closure candidate)
        (5, 6), (6, 5),          # reciprocal pair
        (6, 4),                  # one-way
        (3, 5),                  # one-way bridge
    ]
    attribute_records = [
        (1, "employer", "Google"),
        (2, "employer", "Google"),
        (2, "school", "UC Berkeley"),
        (3, "school", "UC Berkeley"),
        (4, "major", "Computer Science"),
        (5, "major", "Computer Science"),
        (5, "city", "San Francisco"),
        (6, "city", "San Francisco"),
    ]
    return san_from_edge_lists(social_edges, attribute_records)


@pytest.fixture
def ring_san() -> SAN:
    """A directed ring of 10 nodes (no attributes): useful for distance tests."""
    edges = [(i, (i + 1) % 10) for i in range(10)]
    return san_from_edge_lists(edges)


@pytest.fixture
def clique_san() -> SAN:
    """A fully reciprocally connected clique of 6 nodes sharing one attribute."""
    edges = [(i, j) for i in range(6) for j in range(6) if i != j]
    attributes = [(i, "employer", "Acme") for i in range(6)]
    return san_from_edge_lists(edges, attributes)


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture(scope="session")
def tiny_evolution():
    """A small simulated Google+ evolution (session-scoped; ~400 users)."""
    config = GooglePlusConfig(
        total_users=400,
        num_days=40,
        phases=PhaseBoundaries(phase_one_end=10, phase_two_end=30),
    )
    return simulate_google_plus(config, rng=20120835)


@pytest.fixture(scope="session")
def tiny_snapshot_days(tiny_evolution):
    return standard_snapshot_days(tiny_evolution.num_days, count=6)


@pytest.fixture(scope="session")
def tiny_snapshots(tiny_evolution, tiny_snapshot_days):
    """Crawled snapshot series over the tiny evolution."""
    return crawl_evolution(tiny_evolution, tiny_snapshot_days)


@pytest.fixture(scope="session")
def tiny_final_san(tiny_snapshots):
    return tiny_snapshots.last()


@pytest.fixture(scope="session")
def model_run():
    """A small generative-model run with its history (session-scoped)."""
    params = SANModelParameters(steps=700)
    return generate_san(params, rng=99, snapshot_every=350, record_history=True)


@pytest.fixture(scope="session")
def zhel_san():
    """A small Zhel baseline SAN (session-scoped)."""
    return generate_zhel_san(ZhelModelParameters(steps=700), rng=99)

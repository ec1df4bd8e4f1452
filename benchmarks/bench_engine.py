"""Engine-dispatched frozen kernels vs the portable implementations.

PR 1's ``bench_frozen_backend.py`` covers the metric groups ported with the
original FrozenSAN tentpole (degrees, reciprocity, joint degree, clustering,
triangles).  This bench covers the kernels added with the dispatch engine —
connected components, the HyperANF effective diameter, batched random walks,
and batched link-prediction scoring — asserting the >= 3x acceptance bar on
the same ~50k-edge synthetic Google+ workload and writing the comparison
table to ``benchmarks/results/bench_engine.txt``.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.algorithms.components import weakly_connected_components
from repro.algorithms.hyperanf import (
    effective_diameter_from_neighbourhood,
    neighbourhood_function,
)
from repro.algorithms.random_walk import random_walks
from repro.applications.link_prediction import pair_features_batch, rank_candidate_pairs
from repro.experiments import format_table
from repro.synthetic import BENCH_SEED, GooglePlusConfig, simulate_google_plus
from repro.utils.rng import ensure_rng

#: The acceptance bar for every engine kernel group.
REQUIRED_SPEEDUP = 3.0
MIN_EDGES = 50_000

#: HyperANF register precision used by the diameter group (2**5 registers —
#: enough for a stable estimate while keeping the *mutable* side affordable).
PRECISION = 5

NUM_WALKS = 10_000
WALK_LENGTH = 16
NUM_PAIRS = 4000
TOP_K = 100


@pytest.fixture(scope="module")
def backend_pair():
    """A ~50k-edge synthetic Google+ SAN in both backends."""
    config = GooglePlusConfig(total_users=6000, num_days=98)
    san = simulate_google_plus(config, rng=BENCH_SEED).final_san().thaw()
    assert san.number_of_social_edges() >= MIN_EDGES
    return san, san.freeze()


@pytest.fixture(scope="module")
def candidate_pairs(backend_pair):
    """Fixed random candidate pairs for the link-prediction scoring group."""
    san, _ = backend_pair
    generator = ensure_rng(20120835)
    nodes = list(san.social_nodes())
    return [
        (nodes[generator.randrange(len(nodes))], nodes[generator.randrange(len(nodes))])
        for _ in range(NUM_PAIRS)
    ]


@pytest.fixture(scope="module")
def walk_starts(backend_pair):
    san, _ = backend_pair
    generator = ensure_rng(4242)
    nodes = list(san.social_nodes())
    return [nodes[generator.randrange(len(nodes))] for _ in range(NUM_WALKS)]


def _best_of(function, graph, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        function(graph)
        times.append(time.perf_counter() - start)
    return min(times)


def _best_of_cold(function, san, rounds: int) -> float:
    """Time ``function`` on a freshly frozen graph each round.

    Used for the groups whose sparse products are memoized on the frozen SAN
    (link-prediction scoring): re-freezing guarantees every timed call does
    real work, with only the undirected CSR — shared infrastructure every
    group relies on — pre-warmed.
    """
    times = []
    for _ in range(rounds):
        fresh = san.freeze()
        fresh.social.undirected_csr()
        start = time.perf_counter()
        function(fresh)
        times.append(time.perf_counter() - start)
    return min(times)


def test_engine_kernel_speedups(backend_pair, candidate_pairs, walk_starts, write_result):
    san, frozen = backend_pair
    # Pre-warm the frozen graph's lazy CSR caches so the table reports
    # steady-state per-call cost (the one-time freeze cost is covered by
    # bench_frozen_backend.py).
    frozen.social.undirected_csr()
    frozen.social.edge_arrays()

    groups = {
        "components": (
            lambda g: weakly_connected_components(g.social),
            {"mutable_rounds": 2, "frozen_rounds": 3, "memoized": False},
        ),
        "effective_diameter": (
            lambda g: effective_diameter_from_neighbourhood(
                neighbourhood_function(g.social, precision=PRECISION)
            ),
            {"mutable_rounds": 1, "frozen_rounds": 2, "memoized": False},
        ),
        "random_walks": (
            lambda g: random_walks(
                g.social, walk_starts, WALK_LENGTH, degree_cap=100, rng=7
            ),
            {"mutable_rounds": 1, "frozen_rounds": 2, "memoized": False},
        ),
        "link_prediction": (
            lambda g: rank_candidate_pairs(g, top_k=TOP_K, metric="adamic_adar"),
            {"mutable_rounds": 1, "frozen_rounds": 2, "memoized": True},
        ),
    }

    rows = []
    speedups = {}
    for name, (function, options) in groups.items():
        mutable_seconds = _best_of(function, san, rounds=options["mutable_rounds"])
        if options["memoized"]:
            frozen_seconds = _best_of_cold(function, san, rounds=options["frozen_rounds"])
        else:
            frozen_seconds = _best_of(function, frozen, rounds=options["frozen_rounds"])
        speedups[name] = mutable_seconds / frozen_seconds
        rows.append(
            {
                "kernel_group": name,
                "mutable_ms": round(mutable_seconds * 1e3, 2),
                "frozen_ms": round(frozen_seconds * 1e3, 3),
                "speedup": round(speedups[name], 1),
            }
        )

    write_result(
        "bench_engine",
        format_table(
            rows,
            title=(
                f"Engine kernels, frozen vs mutable — "
                f"{san.number_of_social_nodes()} social nodes, "
                f"{san.number_of_social_edges()} social edges"
            ),
        ),
    )

    # The kernels must agree before any timing claim counts.
    assert weakly_connected_components(frozen.social) == weakly_connected_components(
        san.social
    )
    mutable_totals = neighbourhood_function(san.social, precision=PRECISION)
    frozen_totals = neighbourhood_function(frozen.social, precision=PRECISION)
    assert len(mutable_totals) == len(frozen_totals)
    for left, right in zip(mutable_totals, frozen_totals):
        assert math.isclose(left, right, rel_tol=1e-9)
    sample = candidate_pairs[:200]
    for left, right in zip(
        pair_features_batch(san, sample), pair_features_batch(frozen, sample)
    ):
        assert set(left) == set(right)
        for key in left:
            assert math.isclose(left[key], right[key], rel_tol=1e-9, abs_tol=1e-12)
    mutable_top = rank_candidate_pairs(san, top_k=TOP_K, metric="common_neighbors")
    frozen_top = rank_candidate_pairs(frozen, top_k=TOP_K, metric="common_neighbors")
    assert [(s, t, float(score)) for s, t, score in mutable_top] == [
        (s, t, float(score)) for s, t, score in frozen_top
    ]

    for name, speedup in speedups.items():
        assert speedup >= REQUIRED_SPEEDUP, (
            f"{name}: expected >= {REQUIRED_SPEEDUP}x, got {speedup:.1f}x"
        )


def test_report_pipeline_freezes_once(backend_pair):
    """The freeze-once battery must beat the same battery on the mutable SAN
    even when its single freeze() is charged to it."""
    from repro.metrics.summary import san_metric_report

    san, _ = backend_pair
    frozen_start = time.perf_counter()
    report_frozen = san_metric_report(
        san.freeze(), include_diameter=True, clustering_samples=500, rng=1
    )
    frozen_seconds = time.perf_counter() - frozen_start

    mutable_start = time.perf_counter()
    report_mutable = san_metric_report(
        san, include_diameter=True, clustering_samples=500, rng=1
    )
    mutable_seconds = time.perf_counter() - mutable_start

    assert set(report_frozen) == set(report_mutable)
    assert frozen_seconds < mutable_seconds

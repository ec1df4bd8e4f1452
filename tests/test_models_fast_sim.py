"""Tests for the array Algorithm 1 (``repro.models.san_model.generate_san``).

The distributional-parity gate lives here: the production generator and the
loop reference in ``model_reference.py`` share no random stream, so equality
between them is checked with two-sample KS tests on the out-degree and
attribute-degree distributions at matched parameters — the acceptance
criterion for the array generator being a faithful Algorithm 1
implementation.
"""

import math

import numpy as np
import pytest
from model_reference import generate_san_loop

from repro.graph.frozen import FrozenSAN
from repro.metrics import (
    attribute_degrees_of_social_nodes,
    global_reciprocity,
    social_out_degrees,
)
from repro.models import (
    FlashCrowd,
    SybilWave,
    SANModelParameters,
    generate_san,
)
from repro.utils import ks_two_sample_threshold, two_sample_ks_statistic

PARITY_STEPS = 2000
PARITY_SEED = 11

#: The loop reference and the production generator, by the ids the fidelity
#: tests report.
GENERATORS = [
    pytest.param(generate_san_loop, id="loop"),
    pytest.param(generate_san, id="vectorized"),
]


@pytest.fixture(scope="module")
def parity_params():
    return SANModelParameters(steps=PARITY_STEPS)


@pytest.fixture(scope="module")
def fast_run(parity_params):
    return generate_san(parity_params, rng=PARITY_SEED, snapshot_every=500)


@pytest.fixture(scope="module")
def loop_run(parity_params):
    return generate_san_loop(parity_params, rng=PARITY_SEED, snapshot_every=500)


# ----------------------------------------------------------------------
# Basic structure
# ----------------------------------------------------------------------
def test_fast_run_produces_expected_node_count(fast_run, parity_params):
    expected = parity_params.seed_social_nodes + PARITY_STEPS
    assert fast_run.num_social_nodes == expected
    assert fast_run.san.number_of_social_nodes() == expected


def test_fast_run_final_is_frozen_and_consistent(fast_run):
    frozen = fast_run.san
    assert isinstance(frozen, FrozenSAN)
    assert frozen.summary() == fast_run.summary()


def test_fast_run_tsv_round_trip_preserves_attributes(fast_run, tmp_path):
    """Serialized model attributes must stay distinct (value != None)."""
    from repro.graph import load_san_tsv, save_san_tsv

    social = tmp_path / "fast.social.tsv"
    attrs = tmp_path / "fast.attrs.tsv"
    save_san_tsv(fast_run.san, social, attrs)
    loaded = load_san_tsv(social, attrs)
    assert loaded.number_of_attribute_nodes() == fast_run.san.number_of_attribute_nodes()
    assert loaded.number_of_attribute_edges() == fast_run.san.number_of_attribute_edges()


def test_fast_run_no_self_loops_or_duplicates(fast_run):
    src = fast_run.social_src
    dst = fast_run.social_dst
    assert not np.any(src == dst)
    keys = src * fast_run.num_social_nodes + dst
    assert np.unique(keys).size == keys.size


def test_fast_run_reciprocity_in_expected_range(fast_run, parity_params):
    reciprocity = global_reciprocity(fast_run.san)
    rate = parity_params.reciprocation_probability
    # A per-link rate r yields link reciprocity around 2r / (1 + r).
    assert abs(reciprocity - 2 * rate / (1 + rate)) < 0.15


# ----------------------------------------------------------------------
# Delta snapshots
# ----------------------------------------------------------------------
def test_snapshot_marks_and_materialization(fast_run):
    steps = [mark.step for mark in fast_run.marks]
    assert steps == [500, 1000, 1500, 2000]
    sizes = [mark.num_social_edges for mark in fast_run.marks]
    assert sizes == sorted(sizes)
    snapshots = fast_run.snapshots
    assert [step for step, _ in snapshots] == steps
    for mark, (step, frozen) in zip(fast_run.marks, snapshots):
        assert frozen.number_of_social_nodes() == mark.num_social_nodes
        assert frozen.number_of_social_edges() == mark.num_social_edges
        assert frozen.number_of_attribute_edges() == mark.num_attribute_edges
    # The last watermark is the final state.
    final, last = fast_run.san, snapshots[-1][1]
    assert final.number_of_social_edges() == last.number_of_social_edges()


def test_snapshot_prefixes_are_nested(fast_run):
    early = fast_run.snapshots[0][1]
    late = fast_run.san
    for source, target in list(early.social_edges())[:200]:
        assert late.has_social_edge(source, target)


def test_no_snapshot_every_means_no_marks():
    run = generate_san(SANModelParameters(steps=50), rng=2)
    assert run.marks == []
    assert run.snapshots == []


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_fast_engine_deterministic_given_seed(parity_params):
    first = generate_san(SANModelParameters(steps=150), rng=123)
    second = generate_san(SANModelParameters(steps=150), rng=123)
    _assert_same_run(first, second)


def _assert_same_run(first, second):
    assert np.array_equal(first.social_src, second.social_src)
    assert np.array_equal(first.social_dst, second.social_dst)
    assert np.array_equal(first.link_social, second.link_social)
    assert np.array_equal(first.link_attr, second.link_attr)
    assert first.attribute_labels == second.attribute_labels


def test_negative_seed_runs_as_its_absolute_value():
    """numpy rejects negative seeds; ``random.Random`` takes ``abs(seed)``."""
    params = SANModelParameters(steps=60)
    _assert_same_run(generate_san(params, rng=-3), generate_san(params, rng=3))


# ----------------------------------------------------------------------
# Distributional parity gate (loop reference vs production)
# ----------------------------------------------------------------------
def test_ks_parity_out_degree(fast_run, loop_run):
    fast_degrees = list(social_out_degrees(fast_run.san))
    loop_degrees = list(social_out_degrees(loop_run.san))
    statistic = two_sample_ks_statistic(fast_degrees, loop_degrees)
    threshold = ks_two_sample_threshold(len(fast_degrees), len(loop_degrees))
    assert statistic < threshold, (
        f"out-degree KS {statistic:.4f} >= threshold {threshold:.4f}"
    )


def test_ks_parity_attribute_degree(fast_run, loop_run):
    fast_degrees = list(attribute_degrees_of_social_nodes(fast_run.san))
    loop_degrees = list(attribute_degrees_of_social_nodes(loop_run.san))
    statistic = two_sample_ks_statistic(fast_degrees, loop_degrees)
    threshold = ks_two_sample_threshold(len(fast_degrees), len(loop_degrees))
    assert statistic < threshold, (
        f"attribute-degree KS {statistic:.4f} >= threshold {threshold:.4f}"
    )


def test_edge_counts_agree_within_run_noise(fast_run, loop_run):
    fast_edges = fast_run.summary()["social_edges"]
    loop_edges = loop_run.san.number_of_social_edges()
    assert fast_edges == pytest.approx(loop_edges, rel=0.25)


# ----------------------------------------------------------------------
# Algorithm 1 fidelity regressions (reference and production)
# ----------------------------------------------------------------------
def _realized_attribute_mean(san, seed_count):
    degrees = [
        san.attribute_degree(node)
        for node in san.social_nodes()
        if isinstance(node, int) and node >= seed_count
    ]
    return sum(degrees) / len(degrees)


@pytest.mark.parametrize("generate", GENERATORS)
def test_realized_attribute_degree_matches_sampled_mean(generate):
    """Duplicate existing-attribute draws must be retried, not dropped.

    With a small new-attribute probability most draws target existing
    attributes and collisions are frequent; before the retry fix the realized
    mean sat ~20% below the sampled lognormal mean.  The retried sampler
    stays within estimation noise of ``exp(mu + sigma^2 / 2)``.
    """
    params = SANModelParameters(
        steps=800,
        new_attribute_probability=0.05,
        attribute_mu=1.2,
        attribute_sigma=0.6,
    )
    san = generate(params, rng=4).san
    realized = _realized_attribute_mean(san, params.seed_social_nodes)
    sampled_mean = math.exp(params.attribute_mu + params.attribute_sigma**2 / 2)
    assert realized == pytest.approx(sampled_mean, rel=0.10)


@pytest.mark.parametrize("generate", GENERATORS)
def test_seed_nodes_issue_outgoing_links(generate):
    """Seed nodes are scheduled at step 0 and keep linking after seeding."""
    params = SANModelParameters(steps=150)
    san = generate(params, rng=9).san
    seed_out = [
        san.social_out_degree(node) for node in range(params.seed_social_nodes)
    ]
    baseline = params.seed_social_nodes - 1  # the complete-seed out-degree
    assert any(degree > baseline for degree in seed_out)


# ----------------------------------------------------------------------
# History recording and ablations
# ----------------------------------------------------------------------
def test_fast_engine_records_replayable_history():
    params = SANModelParameters(steps=120)
    run = generate_san(params, rng=6, record_history=True)
    history = run.history()
    assert [event.kind for event in history.events].count("node") == params.steps
    replayed = history.final_san()
    assert replayed.number_of_social_edges() == run.summary()["social_edges"]
    assert replayed.number_of_attribute_edges() == run.summary()["attribute_edges"]


def test_fast_engine_without_history_is_empty():
    run = generate_san(SANModelParameters(steps=30), rng=6)
    history = run.history()
    assert history.events == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"use_lapa": False},
        {"use_focal_closure": False},
        {"reciprocation_probability": 0.0},
        {"arrivals_per_step": 3},
    ],
)
def test_fast_engine_ablations_run(kwargs):
    params = SANModelParameters(steps=120, **kwargs)
    run = generate_san(params, rng=5)
    expected_nodes = params.seed_social_nodes + 120 * params.arrivals_per_step
    assert run.num_social_nodes == expected_nodes
    assert run.summary()["social_edges"] > expected_nodes
    if kwargs.get("reciprocation_probability") == 0.0:
        assert global_reciprocity(run.san) < 0.1


# ----------------------------------------------------------------------
# Distributional parity under adversarial / churn regimes
# ----------------------------------------------------------------------
REGIME_PARAMS = {
    "churn": dict(attribute_churn_rate=0.2),
    "flash-crowd": dict(flash_crowds=(FlashCrowd(step=600, arrivals=150),)),
    "sybil-waves": dict(
        sybil_waves=(
            SybilWave(step=500, num_sybils=30, attack_edges_per_sybil=2,
                      intra_links=45),
            SybilWave(step=900, num_sybils=20, attack_edges_per_sybil=1,
                      intra_links=30),
        )
    ),
}


@pytest.fixture(scope="module", params=sorted(REGIME_PARAMS))
def regime_runs(request):
    params = SANModelParameters(steps=1200, **REGIME_PARAMS[request.param])
    fast = generate_san(params, rng=PARITY_SEED)
    loop = generate_san_loop(params, rng=PARITY_SEED)
    return request.param, params, fast, loop


def test_ks_parity_out_degree_under_regimes(regime_runs):
    """The array generator must track the loop reference inside every regime."""
    name, _, fast, loop = regime_runs
    fast_degrees = list(social_out_degrees(fast.san))
    loop_degrees = list(social_out_degrees(loop.san))
    statistic = two_sample_ks_statistic(fast_degrees, loop_degrees)
    threshold = ks_two_sample_threshold(len(fast_degrees), len(loop_degrees))
    assert statistic < threshold, (
        f"{name}: out-degree KS {statistic:.4f} >= threshold {threshold:.4f}"
    )


def test_ks_parity_attribute_degree_under_regimes(regime_runs):
    name, _, fast, loop = regime_runs
    fast_degrees = list(attribute_degrees_of_social_nodes(fast.san))
    loop_degrees = list(attribute_degrees_of_social_nodes(loop.san))
    statistic = two_sample_ks_statistic(fast_degrees, loop_degrees)
    threshold = ks_two_sample_threshold(len(fast_degrees), len(loop_degrees))
    assert statistic < threshold, (
        f"{name}: attribute-degree KS {statistic:.4f} >= threshold {threshold:.4f}"
    )


def test_regime_structural_counts_agree(regime_runs):
    """Deterministic regime bookkeeping must match the loop reference exactly."""
    name, params, fast, loop = regime_runs
    assert len(fast.sybil_nodes) == len(loop.sybil_nodes) == sum(
        wave.num_sybils for wave in params.sybil_waves
    )
    expected_nodes = (
        params.seed_social_nodes
        + params.steps * params.arrivals_per_step
        + sum(crowd.arrivals for crowd in params.flash_crowds)
        + sum(wave.num_sybils for wave in params.sybil_waves)
    )
    assert fast.san.number_of_social_nodes() == expected_nodes
    assert loop.san.number_of_social_nodes() == expected_nodes
    fast_edges = fast.summary()["social_edges"]
    loop_edges = loop.san.number_of_social_edges()
    assert fast_edges == pytest.approx(loop_edges, rel=0.25), name

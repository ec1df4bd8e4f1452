"""Tests for the vectorized attachment-likelihood implementation, against the
loop reference in ``model_reference.py``."""

import pytest
from model_reference import evaluate_attachment_models_loop, generate_san_loop

from repro.graph import SAN
from repro.models import (
    ArrivalHistory,
    AttachmentModelSpec,
    SANModelParameters,
    encode_history,
    evaluate_attachment_models,
    evaluate_attachment_models_fast,
    figure15_specs,
    figure15_sweep,
    generate_san,
)


@pytest.fixture(scope="module")
def generated_history():
    """The loop reference generator's history, recorded on a mutable SAN."""
    return generate_san_loop(
        SANModelParameters(steps=350), rng=17, record_history=True
    ).history


@pytest.fixture(scope="module")
def fast_generated_history():
    """The production generator's decoded event log (integer labels)."""
    return generate_san(
        SANModelParameters(steps=300), rng=23, record_history=True
    ).history()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def test_encode_history_counts(generated_history):
    encoded = encode_history(generated_history)
    assert encoded.num_events == len(generated_history.events)
    assert encoded.social_src.size == generated_history.num_social_links()
    final = generated_history.final_san()
    assert encoded.num_nodes == final.number_of_social_nodes()
    assert encoded.num_attributes == final.number_of_attribute_nodes()
    # Membership CSRs are two transposes of the same link set.
    assert encoded.node_attr_ids.size == encoded.attr_member_ids.size
    assert encoded.node_attr_ids.size == final.number_of_attribute_edges()
    # The update stream contains one registration per non-initial node plus
    # one degree increment per distinct social edge gained during the events.
    registrations = int((encoded.update_old_degree < 0).sum())
    assert registrations == encoded.num_nodes - encoded.num_initial_nodes
    increments = int((encoded.update_old_degree >= 0).sum())
    assert increments == encoded.gain_comp.size


def test_encode_tracks_degrees_and_eligibility():
    initial = SAN()
    for node in range(2):
        initial.add_social_node(node)
    initial.add_social_edge(0, 1)
    history = ArrivalHistory(initial=initial)
    history.record_social_link(1, 0)   # eligible; target degree 0
    history.record_social_link(1, 0)   # duplicate
    history.record_node(2)
    history.record_social_link(2, 1)   # eligible; target degree 1 already
    history.record_social_link(2, 2)   # self loop: counted, not eligible
    encoded = encode_history(history)
    assert encoded.social_eligible.tolist() == [True, False, True, False]
    assert encoded.social_dst_degree.tolist() == [0, 1, 1, 0]
    # Each scoring point counts every registration and degree increment
    # applied before it (including its own event's registrations).
    assert encoded.social_update_count.tolist() == [0, 1, 2, 3]
    assert encoded.update_old_degree.tolist() == [0, -1, 1, 0]


def test_encode_attribute_rich_initial_san_no_key_collisions():
    """Regression: attribute ids exceed the social-id stride in snapshots
    with many attributes and few events — membership dedup keys must use an
    attribute-sized stride or distinct memberships collide and are dropped."""
    initial = SAN()
    for node in range(3):
        initial.add_social_node(node)
    initial.add_social_edge(0, 1)
    # Far more attribute nodes than social nodes + 2 * events + 1.
    for value in range(8):
        initial.add_attribute_edge(value % 3, f"f{value}", attr_type="t")
    initial.add_attribute_edge(1, "X", attr_type="t")
    initial.add_attribute_edge(2, "X", attr_type="t")
    history = ArrivalHistory(initial=initial)
    history.record_social_link(0, 2)
    encoded = encode_history(history)
    assert encoded.node_attr_ids.size == initial.number_of_attribute_edges()

    spec = AttachmentModelSpec(kind="lapa", alpha=1.0, beta=100.0, label="m")
    loop = evaluate_attachment_models_loop(history, [spec], max_links=None)
    fast = evaluate_attachment_models_fast(history, [spec], max_links=None)
    assert fast.log_likelihoods["m"] == pytest.approx(
        loop.log_likelihoods["m"], rel=1e-12
    )


# ----------------------------------------------------------------------
# The public entry point runs the vectorized implementation
# ----------------------------------------------------------------------
def test_auto_routes_to_vectorized(generated_history):
    specs = [AttachmentModelSpec(kind="lapa", alpha=1.0, beta=50.0, label="m")]
    auto = evaluate_attachment_models(generated_history, specs, max_links=200, rng=3)
    fast = evaluate_attachment_models_fast(
        generated_history, specs, max_links=200, rng=3
    )
    assert auto.log_likelihoods == fast.log_likelihoods
    assert auto.num_links_scored == fast.num_links_scored


# ----------------------------------------------------------------------
# Cross-backend parity on generated histories
# ----------------------------------------------------------------------
@pytest.mark.parametrize("history_fixture", ["generated_history", "fast_generated_history"])
def test_subsampled_parity_between_backends(history_fixture, request):
    """Same seed => identical scored-link set and matching log-likelihoods."""
    history = request.getfixturevalue(history_fixture)
    specs = figure15_specs(
        alphas=(0.0, 0.5, 1.0, 2.0), papa_betas=(0.0, 2.0), lapa_betas=(0.0, 100.0)
    )
    loop = evaluate_attachment_models_loop(history, specs, max_links=250, rng=41)
    fast = evaluate_attachment_models_fast(history, specs, max_links=250, rng=41)
    assert loop.num_links_scored == fast.num_links_scored
    assert set(loop.log_likelihoods) == set(fast.log_likelihoods)
    for name, value in loop.log_likelihoods.items():
        assert fast.log_likelihoods[name] == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_different_seeds_select_different_links(generated_history):
    specs = [AttachmentModelSpec(kind="pa", alpha=1.0)]
    first = evaluate_attachment_models_fast(
        generated_history, specs, max_links=200, rng=1
    )
    second = evaluate_attachment_models_fast(
        generated_history, specs, max_links=200, rng=2
    )
    assert (
        first.num_links_scored != second.num_links_scored
        or first.log_likelihoods != second.log_likelihoods
    )


# ----------------------------------------------------------------------
# Determinism (the seed-threading bugfix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("implementation", ["vectorized"])
def test_same_seed_sweeps_identical(generated_history, implementation):
    """Same-seed sweeps of the one implementation ``figure15_sweep`` runs."""
    kwargs = dict(
        alphas=(0.0, 1.0),
        papa_betas=(0.0, 2.0),
        lapa_betas=(0.0, 100.0),
        max_links=200,
    )
    first = figure15_sweep(generated_history, rng=9, **kwargs)
    second = figure15_sweep(generated_history, rng=9, **kwargs)
    assert first == second


def test_default_seed_is_deterministic(generated_history):
    """Calling without any rng must be reproducible (regression: the old
    default drew from system entropy)."""
    specs = [AttachmentModelSpec(kind="pa", alpha=1.0)]
    first = evaluate_attachment_models(generated_history, specs, max_links=150)
    second = evaluate_attachment_models(generated_history, specs, max_links=150)
    assert first.num_links_scored == second.num_links_scored
    assert first.log_likelihoods == second.log_likelihoods

"""Tests for the Algorithm 1 generative model."""

import pytest
from model_reference import generate_san_loop

from repro.fitting import best_fit_name, fit_lognormal, fit_power_law
from repro.metrics import (
    attribute_degrees_of_social_nodes,
    global_reciprocity,
    social_degrees_of_attribute_nodes,
    social_out_degrees,
)
from repro.models import (
    SANModelParameters,
    generate_san,
    predicted_attribute_social_degree_exponent,
    predicted_outdegree_lognormal,
)


def test_run_produces_expected_node_count(model_run):
    params = model_run.parameters
    expected_nodes = params.seed_social_nodes + params.steps * params.arrivals_per_step
    assert model_run.san.number_of_social_nodes() == expected_nodes


def test_run_records_history_and_snapshots(model_run):
    history = model_run.history()
    assert [event.kind for event in history.events].count("node") == model_run.parameters.steps
    assert history.num_social_links() > 0
    # Replaying the history reproduces the final SAN exactly.
    replayed = history.final_san()
    assert replayed.number_of_social_edges() == model_run.san.number_of_social_edges()
    assert replayed.number_of_attribute_edges() == model_run.san.number_of_attribute_edges()
    days = [day for day, _ in model_run.snapshots]
    assert days[-1] == model_run.parameters.steps
    sizes = [san.number_of_social_nodes() for _, san in model_run.snapshots]
    assert sizes == sorted(sizes)


def test_no_self_loops_or_duplicate_edges(model_run):
    san = model_run.san
    for source, target in san.social_edges():
        assert source != target
    # DiGraph enforces uniqueness structurally; verify count consistency.
    assert san.number_of_social_edges() == len(set(san.social_edges()))


def test_reciprocity_in_expected_range(model_run):
    reciprocity = global_reciprocity(model_run.san)
    target = model_run.parameters.reciprocation_probability
    assert abs(reciprocity - target) < 0.25


def test_outdegree_close_to_theorem_one_prediction(model_run):
    """The realised out-degree distribution should match the Theorem 1 lognormal."""
    degrees = [d for d in social_out_degrees(model_run.san) if d >= 1]
    fit = fit_lognormal(degrees)
    prediction = predicted_outdegree_lognormal(model_run.parameters)
    assert fit.distribution.mu == pytest.approx(prediction.mu, abs=0.5)
    assert fit.distribution.sigma == pytest.approx(prediction.sigma, abs=0.5)


def test_outdegree_best_fit_is_lognormal(model_run):
    degrees = [d for d in social_out_degrees(model_run.san) if d >= 1]
    assert best_fit_name(degrees) in ("lognormal", "power_law_with_cutoff")
    # The lognormal must at least beat the pure power law.
    from repro.fitting import lognormal_vs_power_law

    assert lognormal_vs_power_law(degrees).favours_first


def test_attribute_degree_lognormal_parameters(model_run):
    degrees = [d for d in attribute_degrees_of_social_nodes(model_run.san) if d >= 1]
    fit = fit_lognormal(degrees)
    assert fit.distribution.mu == pytest.approx(model_run.parameters.attribute_mu, abs=0.4)


def test_attribute_social_degree_power_law_exponent(model_run):
    degrees = [d for d in social_degrees_of_attribute_nodes(model_run.san) if d >= 1]
    fit = fit_power_law(degrees)
    predicted = predicted_attribute_social_degree_exponent(model_run.parameters)
    assert fit.distribution.alpha == pytest.approx(predicted, abs=0.6)


def test_ablation_flags_change_structure():
    base = SANModelParameters(steps=250)
    without_lapa = SANModelParameters(steps=250, use_lapa=False)
    without_focal = SANModelParameters(steps=250, use_focal_closure=False)
    run_base = generate_san(base, rng=5, record_history=False)
    run_no_lapa = generate_san(without_lapa, rng=5, record_history=False)
    run_no_focal = generate_san(without_focal, rng=5, record_history=False)
    for run in (run_base, run_no_lapa, run_no_focal):
        assert run.san.number_of_social_nodes() == 255
        assert run.san.number_of_social_edges() > 255


def test_snapshot_every_none_gives_no_snapshots():
    run = generate_san(SANModelParameters(steps=60), rng=2, record_history=False)
    assert run.snapshots == []
    assert run.history().events == []


def test_deterministic_given_seed():
    params = SANModelParameters(steps=80)
    first = generate_san(params, rng=123, record_history=False)
    second = generate_san(params, rng=123, record_history=False)
    assert set(first.san.social_edges()) == set(second.san.social_edges())
    assert set(first.san.attribute_edges()) == set(second.san.attribute_edges())


def test_serialized_determinism_given_seed(tmp_path):
    """Same seed + parameters produce byte-identical serialized SANs."""
    from repro.graph import save_san_tsv

    params = SANModelParameters(steps=100)
    for index in (1, 2):
        run = generate_san(params, rng=77, record_history=False)
        save_san_tsv(
            run.san,
            tmp_path / f"run{index}.social.tsv",
            tmp_path / f"run{index}.attrs.tsv",
        )
    for suffix in ("social.tsv", "attrs.tsv"):
        first = (tmp_path / f"run1.{suffix}").read_bytes()
        second = (tmp_path / f"run2.{suffix}").read_bytes()
        assert first == second


def test_parameter_validation():
    with pytest.raises(ValueError):
        SANModelParameters(steps=0)
    with pytest.raises(ValueError):
        SANModelParameters(steps=10, new_attribute_probability=1.5)
    with pytest.raises(ValueError):
        SANModelParameters(steps=10, focal_weight=-0.1)


# The ids are the names these generators ran under before the array
# generator took the name ``generate_san``: "generate_san" is the loop
# reference and "generate_san_fast" the production generator.
@pytest.mark.parametrize(
    "generate",
    [
        pytest.param(generate_san_loop, id="generate_san"),
        pytest.param(generate_san, id="generate_san_fast"),
    ],
)
@pytest.mark.parametrize("snapshot_every", [0, -3])
def test_non_positive_snapshot_every_is_a_named_error(generate, snapshot_every):
    """Zero would divide by zero and a negative value snapshot every |k| steps."""
    with pytest.raises(ValueError, match="snapshot_every"):
        generate(rng=1, snapshot_every=snapshot_every)

"""Tests for parameter estimation against a reference SAN."""

import math

import pytest

from repro.graph import SAN
from repro.models import (
    SANModelParameters,
    estimate_parameters,
    generate_san,
    invert_theorem_two,
)


def test_estimate_parameters_from_model_run(model_run):
    """Estimating from a SAN generated by known parameters should roughly
    recover the headline quantities."""
    reference = model_run.san
    true_params = model_run.parameters
    result = estimate_parameters(reference, mean_sleep=true_params.lifetime.mean_sleep)
    estimated = result.parameters

    assert estimated.attribute_mu == pytest.approx(true_params.attribute_mu, abs=0.5)
    assert estimated.new_attribute_probability == pytest.approx(
        true_params.new_attribute_probability, abs=0.2
    )
    assert estimated.reciprocation_probability == pytest.approx(
        true_params.reciprocation_probability, abs=0.2
    )
    assert estimated.steps == reference.number_of_social_nodes()
    assert "outdegree_mu" in result.diagnostics


def test_estimate_parameters_small_reference(figure1_san):
    """Tiny references fall back to defaults without crashing."""
    result = estimate_parameters(figure1_san)
    params = result.parameters
    assert 0.0 <= params.new_attribute_probability <= 1.0
    assert params.steps >= 200


def test_theorem_two_cross_check_on_generated_san():
    """Regression: the Theorem-2 inversion must be computed and recorded, not
    imported and discarded.  On a healthy generated SAN the moment estimator
    drives ``p`` and both estimators appear in the diagnostics."""
    true_p = 0.4
    run = generate_san(
        SANModelParameters(steps=1500, new_attribute_probability=true_p), rng=13
    )
    result = estimate_parameters(run.san)
    diagnostics = result.diagnostics
    assert diagnostics["new_attribute_probability_from_theorem2"] == 0.0
    assert diagnostics["new_attribute_probability_moment"] == pytest.approx(
        true_p, abs=0.15
    )
    theorem_value = diagnostics["new_attribute_probability_theorem2"]
    assert math.isfinite(theorem_value)
    assert 0.0 < theorem_value < 1.0
    # The inversion is consistent with the recorded exponent.
    assert theorem_value == pytest.approx(
        invert_theorem_two(diagnostics["attribute_social_degree_exponent"])
    )
    assert result.parameters.new_attribute_probability == pytest.approx(
        diagnostics["new_attribute_probability_moment"], abs=1e-12
    )


def test_theorem_two_fallback_when_moment_estimator_clamps():
    """Every attribute unique -> the moment ratio is 1.0 (clamped), so the
    fitted-exponent inversion must take over."""
    san = SAN()
    for node in range(16):
        san.add_social_node(node)
        san.add_social_edge(node, (node + 1) % 16)
        san.add_attribute_edge(node, f"solo:{node}", attr_type="solo")
    result = estimate_parameters(san)
    diagnostics = result.diagnostics
    assert diagnostics["new_attribute_probability_moment"] == pytest.approx(1.0)
    assert diagnostics["new_attribute_probability_from_theorem2"] == 1.0
    assert result.parameters.new_attribute_probability == pytest.approx(
        min(
            max(invert_theorem_two(diagnostics["attribute_social_degree_exponent"]), 0.02),
            0.9,
        )
    )


def test_theorem_two_fallback_without_attribute_links():
    """Zero attribute links: the moment estimator is undefined (recorded as
    NaN) and the Theorem-2 inversion of the default exponent supplies ``p``."""
    san = SAN()
    for node in range(12):
        san.add_social_node(node)
        san.add_social_edge(node, (node + 1) % 12)
    result = estimate_parameters(san)
    diagnostics = result.diagnostics
    assert math.isnan(diagnostics["new_attribute_probability_moment"])
    assert diagnostics["new_attribute_probability_from_theorem2"] == 1.0
    assert result.parameters.new_attribute_probability == pytest.approx(
        invert_theorem_two(2.33)
    )

"""Theorems 1-2: closed-form predictions vs simulated distributions.

Theorem 1: the model's social out-degree is lognormal with parameters
determined by the truncated-normal lifetime and the mean sleep time.
Theorem 2: the social degree of attribute nodes is a power law with exponent
(2 - p) / (1 - p).
"""

from repro.experiments import format_table
from repro.fitting import fit_lognormal, fit_power_law
from repro.metrics import social_degrees_of_attribute_nodes, social_out_degrees
from repro.models import (
    SANModelParameters,
    generate_san,
    predicted_attribute_social_degree_exponent,
    predicted_outdegree_lognormal,
)


def test_theorem1_outdegree_lognormal(benchmark, write_result):
    params = SANModelParameters(steps=2500)

    def run():
        run_result = generate_san(params, rng=1)
        degrees = [d for d in social_out_degrees(run_result.san) if d >= 1]
        return fit_lognormal(degrees)

    fit = benchmark.pedantic(run, rounds=1, iterations=1)
    prediction = predicted_outdegree_lognormal(params)
    rows = [
        {"quantity": "mu", "predicted": prediction.mu, "measured": fit.distribution.mu},
        {"quantity": "sigma", "predicted": prediction.sigma, "measured": fit.distribution.sigma},
    ]
    write_result("theorem1_outdegree", format_table(rows, title="Theorem 1 — out-degree lognormal"))

    assert abs(fit.distribution.mu - prediction.mu) < 0.5
    assert abs(fit.distribution.sigma - prediction.sigma) < 0.5


def test_theorem2_attribute_degree_exponent(benchmark, write_result):
    rows = []

    def run():
        measured = {}
        for p in (0.1, 0.25, 0.5):
            params = SANModelParameters(steps=2000, new_attribute_probability=p)
            run_result = generate_san(params, rng=2)
            degrees = [d for d in social_degrees_of_attribute_nodes(run_result.san) if d >= 1]
            measured[p] = fit_power_law(degrees).distribution.alpha
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    for p, alpha in measured.items():
        predicted = predicted_attribute_social_degree_exponent(
            SANModelParameters(steps=10, new_attribute_probability=p)
        )
        rows.append({"p": p, "predicted_alpha": predicted, "measured_alpha": alpha})
    write_result("theorem2_attribute_exponent", format_table(rows, title="Theorem 2 — attribute degree exponent"))

    # The measured exponent tracks the predicted (2 - p) / (1 - p): it must
    # increase with p and stay within a tolerance of the prediction.
    alphas = [measured[p] for p in (0.1, 0.25, 0.5)]
    assert alphas[0] < alphas[2]
    for p in (0.1, 0.25, 0.5):
        predicted = predicted_attribute_social_degree_exponent(
            SANModelParameters(steps=10, new_attribute_probability=p)
        )
        assert abs(measured[p] - predicted) < 0.8

"""Generative-model demo: fit the SAN model to a reference network and compare.

Run with::

    python examples/generative_model_demo.py

Simulates a reference Google+-like SAN, estimates the generative-model
parameters from it (inverting Theorems 1-2 and measuring the attribute
structure), generates synthetic SANs with our model and with the Zhel
baseline, and compares the three on the paper's evaluation metrics
(degree-distribution families, clustering, reciprocity).
"""

from __future__ import annotations

from repro.crawler import crawl_evolution
from repro.experiments import figure16_model_degree_distributions, format_table
from repro.metrics import (
    attribute_density,
    exact_attribute_clustering_coefficient,
    global_reciprocity,
    social_density,
)
from repro.models import (
    ZhelModelParameters,
    estimate_parameters,
    generate_san,
    generate_zhel_san,
    predicted_attribute_social_degree_exponent,
    predicted_outdegree_lognormal,
)
from repro.synthetic import GooglePlusConfig, build_workload
from repro.metrics.evolution import PhaseBoundaries


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build the reference network (stand-in for the Google+ crawl).
    # ------------------------------------------------------------------
    config = GooglePlusConfig(
        total_users=1000, num_days=70, phases=PhaseBoundaries(15, 55)
    )
    workload = build_workload(config, rng=11, snapshot_count=6)
    reference = crawl_evolution(workload.evolution, workload.snapshot_days).last()
    print(f"Reference SAN: {reference!r}")

    # ------------------------------------------------------------------
    # 2. Estimate model parameters from the reference (guided initialisation).
    # ------------------------------------------------------------------
    estimation = estimate_parameters(reference, mean_sleep=2.0, beta=200.0)
    params = estimation.parameters
    print("\nEstimated parameters:")
    print(f"  lifetime mu/sigma       : {params.lifetime.mu:.2f} / {params.lifetime.sigma:.2f}")
    print(f"  mean sleep              : {params.lifetime.mean_sleep:.2f}")
    print(f"  attribute mu/sigma      : {params.attribute_mu:.2f} / {params.attribute_sigma:.2f}")
    print(f"  new-attribute prob p    : {params.new_attribute_probability:.3f}")
    print(f"  reciprocation prob      : {params.reciprocation_probability:.3f}")
    prediction = predicted_outdegree_lognormal(params)
    print(f"  Theorem 1 predicts out-degree lognormal(mu={prediction.mu:.2f}, sigma={prediction.sigma:.2f})")
    print(
        "  Theorem 2 predicts attribute social-degree exponent "
        f"{predicted_attribute_social_degree_exponent(params):.2f}"
    )

    # ------------------------------------------------------------------
    # 3. Generate synthetic SANs: our model and the Zhel baseline.
    # ------------------------------------------------------------------
    # generate_san runs Algorithm 1 on array state; snapshots are recorded
    # as watermarks and materialize as frozen CSR views on first access.
    model_run = generate_san(params, rng=23, snapshot_every=max(params.steps // 4, 1))
    growth = " -> ".join(
        f"{step}:{view.number_of_social_edges()}e" for step, view in model_run.snapshots
    )
    zhel_san = generate_zhel_san(
        ZhelModelParameters(steps=params.steps, reciprocation_probability=params.reciprocation_probability),
        rng=23,
    )
    print(f"\nOur model   : {model_run.san!r}")
    print(f"  snapshot growth: {growth}")
    print(f"Zhel baseline: {zhel_san!r}")

    # ------------------------------------------------------------------
    # 4. Compare on network metrics (the Figure 16 analysis).
    # ------------------------------------------------------------------
    fits = figure16_model_degree_distributions(reference, model_run.san, zhel_san)
    rows = []
    for network, per_quantity in fits.items():
        for quantity, entry in per_quantity.items():
            rows.append(
                {
                    "network": network,
                    "quantity": quantity,
                    "best_fit": entry.get("best_fit"),
                    "lognormal_advantage": entry.get("lognormal_minus_power_ll"),
                }
            )
    print()
    print(format_table(rows, title="Degree-distribution families (Figure 16)"))

    summary_rows = []
    for name, san in (("reference", reference), ("san_model", model_run.san), ("zhel", zhel_san)):
        summary_rows.append(
            {
                "network": name,
                "reciprocity": global_reciprocity(san),
                "social_density": social_density(san),
                "attribute_density": attribute_density(san),
                "attribute_clustering": exact_attribute_clustering_coefficient(san),
            }
        )
    print()
    print(format_table(summary_rows, title="Headline metrics"))


if __name__ == "__main__":
    main()

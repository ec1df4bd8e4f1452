"""Figures 16-17: generated SANs vs the reference — degree families, JDD, clustering.

Paper results: our model reproduces the lognormal social degrees, the lognormal
attribute degree of social nodes and the power-law social degree of attribute
nodes, while the Zhel baseline produces power-law-style social degrees and a
non-lognormal attribute degree; our model's attribute knn and clustering
distributions track the reference much more closely than Zhel's.
"""

from repro.experiments import (
    figure16_model_degree_distributions,
    figure17_jdd_and_clustering,
    format_table,
)


def test_fig16_degree_distribution_families(
    benchmark, reference_san, model_run, zhel_san, write_result
):
    result = benchmark.pedantic(
        figure16_model_degree_distributions,
        args=(reference_san, model_run.san, zhel_san),
        rounds=1,
        iterations=1,
    )

    rows = []
    for network, fits in result.items():
        for quantity, entry in fits.items():
            rows.append({"network": network, "quantity": quantity, **{
                key: value for key, value in entry.items() if key != "distribution"
            }})
    write_result("fig16_degree_families", format_table(rows, title="Figure 16 — degree fits per network"))

    reference = result["reference"]
    model = result["san_model"]
    zhel = result["zhel"]

    # Our model reproduces the lognormal-vs-power-law advantage of the
    # reference for the social degrees; Zhel's advantage is smaller (its
    # degrees are power-law-style).
    for quantity in ("outdegree", "indegree"):
        assert model[quantity]["lognormal_minus_power_ll"] > 0
        model_advantage = model[quantity]["lognormal_minus_power_ll"] / max(
            1, model[quantity].get("power_law_alpha", 1)
        )
        assert (
            zhel[quantity]["lognormal_minus_power_ll"]
            < model[quantity]["lognormal_minus_power_ll"]
        )

    # The attribute degree of social nodes: our model matches the reference's
    # lognormal mu within a reasonable band; Zhel is further away or worse.
    reference_mu = reference["attribute_degree"]["lognormal_mu"]
    model_mu = model["attribute_degree"]["lognormal_mu"]
    zhel_mu = zhel["attribute_degree"]["lognormal_mu"]
    assert abs(model_mu - reference_mu) <= abs(zhel_mu - reference_mu) + 0.5

    # Social degree of attribute nodes is heavy tailed (power-law-like) in both
    # the reference and our model.
    assert 1.3 < reference["attribute_social_degree"]["power_law_alpha"] < 3.8
    assert 1.3 < model["attribute_social_degree"]["power_law_alpha"] < 3.8


def test_fig17_jdd_and_clustering_match(
    benchmark, reference_san, model_run, zhel_san, write_result
):
    result = benchmark.pedantic(
        figure17_jdd_and_clustering,
        args=(model_run.san, zhel_san, reference_san),
        rounds=1,
        iterations=1,
    )

    def mean_y(points):
        return sum(v for _, v in points) / len(points) if points else 0.0

    rows = []
    for network in ("reference", "san_model", "zhel"):
        rows.append(
            {
                "network": network,
                "mean_attribute_knn": mean_y(result[network]["attribute_knn"]),
                "mean_social_clustering": mean_y(result[network]["social_clustering"]),
                "mean_attribute_clustering": mean_y(result[network]["attribute_clustering"]),
            }
        )
    write_result("fig17_jdd_clustering", format_table(rows, title="Figure 17 — JDD / clustering summaries"))

    reference_clustering = mean_y(result["reference"]["attribute_clustering"])
    model_clustering = mean_y(result["san_model"]["attribute_clustering"])
    zhel_clustering = mean_y(result["zhel"]["attribute_clustering"])
    # Our model's attribute clustering is at least as close to the reference as Zhel's.
    assert abs(model_clustering - reference_clustering) <= abs(
        zhel_clustering - reference_clustering
    ) + 0.05

    reference_knn = mean_y(result["reference"]["attribute_knn"])
    model_knn = mean_y(result["san_model"]["attribute_knn"])
    zhel_knn = mean_y(result["zhel"]["attribute_knn"])
    assert abs(model_knn - reference_knn) <= abs(zhel_knn - reference_knn) + 1.0

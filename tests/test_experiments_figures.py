"""Tests for the per-figure experiment drivers (structure and invariants).

The benchmark harness checks the paper's qualitative findings on the full
workload; these tests check that every driver returns well-formed data on the
small session workload so the harness cannot silently break.
"""


from repro.experiments import (
    figure2_3_growth,
    figure5_degree_distributions,
    figure7_social_jdd,
    figure9_clustering_distributions,
    figure10_attribute_degrees,
    figure12_attribute_jdd,
    figure13_influence,
    figure14_degree_by_attribute_value,
    figure16_model_degree_distributions,
    figure17_jdd_and_clustering,
    figure18_ablations,
    figure19_applications,
    section22_crawl_coverage,
    section52_closure_comparison,
)


def test_figure2_3_growth_driver(tiny_snapshots):
    result = figure2_3_growth(list(tiny_snapshots))
    assert set(result) == {"social_nodes", "attribute_nodes", "social_links", "attribute_links"}
    for series in result.values():
        assert len(series) == len(tiny_snapshots)


def test_figure5_driver(tiny_final_san):
    result = figure5_degree_distributions(tiny_final_san)
    for key in ("outdegree", "indegree"):
        assert result[key]["best_fit"] in (
            "lognormal",
            "power_law",
            "power_law_with_cutoff",
            "exponential",
        )
        assert result[key]["distribution"]
        assert result[key]["lognormal_sigma"] > 0


def test_figure7_and_12_drivers(tiny_final_san, tiny_snapshots):
    social = figure7_social_jdd(tiny_final_san, list(tiny_snapshots))
    attribute = figure12_attribute_jdd(tiny_final_san, list(tiny_snapshots))
    assert social["knn"] and attribute["knn"]
    assert len(social["assortativity_evolution"]) == len(tiny_snapshots)
    assert len(attribute["assortativity_evolution"]) == len(tiny_snapshots)


def test_figure9_driver(tiny_final_san):
    result = figure9_clustering_distributions(tiny_final_san, rng=1)
    assert set(result) == {"social", "attribute", "attribute_subsampled"}
    for series in result.values():
        assert all(0.0 <= value <= 1.0 for _, value in series)


def test_figure10_driver(tiny_final_san):
    result = figure10_attribute_degrees(tiny_final_san)
    assert result["attribute_degree"]["lognormal_sigma"] > 0
    assert result["attribute_social_degree"]["power_law_alpha"] > 1.0


def test_figure13_and_14_drivers(tiny_snapshots):
    earlier, later = tiny_snapshots.halfway(), tiny_snapshots.last()
    influence = figure13_influence(earlier, later)
    assert set(influence["reciprocity_by_bucket"]) == {0, 1, 2}
    assert set(influence["clustering_by_type"]) >= {"employer", "city"}
    degrees = figure14_degree_by_attribute_value(later, top_values=3)
    assert set(degrees) == {"employer", "major"}
    for rows in degrees.values():
        for row in rows:
            assert row["p25"] <= row["median"] <= row["p75"]


def test_section22_and_52_drivers(tiny_snapshots, tiny_evolution):
    coverage = section22_crawl_coverage(tiny_snapshots)
    assert all(0.0 <= value <= 1.0 for value in coverage.values())
    closure = section52_closure_comparison(tiny_evolution, max_edges=300, rng=3)
    assert closure["breakdown"]["total"] > 0
    assert set(closure["average_log_probabilities"]) == {"baseline", "random_random", "rr_san"}
    assert closure["num_edges_scored"] <= 300


def test_figure16_17_drivers(tiny_final_san, model_run, zhel_san):
    fits = figure16_model_degree_distributions(tiny_final_san, model_run.san, zhel_san)
    assert set(fits) == {"reference", "san_model", "zhel"}
    for network in fits.values():
        assert "outdegree" in network
    curves = figure17_jdd_and_clustering(model_run.san, zhel_san, tiny_final_san)
    for network in ("reference", "san_model", "zhel"):
        assert curves[network]["attribute_knn"]


def test_figure18_driver(model_run):
    result = figure18_ablations(model_run.san, model_run.san, model_run.san)
    # Using the same SAN for every variant: the statistics must be identical.
    assert (
        result["full"]["mean_attribute_clustering"]
        == result["without_lapa"]["mean_attribute_clustering"]
        == result["without_focal_closure"]["mean_attribute_clustering"]
    )
    assert result["full"]["indegree"]["best_fit"] in (
        "lognormal",
        "power_law",
        "power_law_with_cutoff",
        "exponential",
    )


def test_figure19_driver(tiny_final_san, model_run, zhel_san):
    result = figure19_applications(
        tiny_final_san,
        model_run.san,
        zhel_san,
        compromised_counts=[5, 20],
        rng=4,
    )
    assert set(result) == {"sybil", "anonymity", "relative_errors"}
    for application in ("sybil", "anonymity"):
        assert set(result[application]) == {"google_plus", "san_model_fc", "zhel"}
        for series in result[application].values():
            assert len(series) == 2
    assert set(result["relative_errors"]["sybil"]) == {"san_model_fc", "zhel"}

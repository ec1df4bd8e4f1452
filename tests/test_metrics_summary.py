"""Tests for the whole-SAN metric report."""

import pytest

from repro.metrics import format_report, san_metric_report


def test_report_contains_headline_metrics(figure1_san):
    report = san_metric_report(figure1_san, clustering_samples=3000, rng=1)
    expected_keys = {
        "social_nodes",
        "attribute_nodes",
        "reciprocity",
        "social_density",
        "attribute_density",
        "attribute_declaration_fraction",
        "social_assortativity",
        "attribute_assortativity",
        "avg_social_clustering",
        "avg_attribute_clustering",
        "social_effective_diameter",
        "mean_out_degree",
    }
    assert expected_keys.issubset(report.keys())
    assert report["reciprocity"] == pytest.approx(0.6)
    assert report["social_nodes"] == 6


def test_report_without_diameter(figure1_san):
    report = san_metric_report(figure1_san, include_diameter=False, rng=1)
    assert "social_effective_diameter" not in report


def test_format_report_renders_all_keys(figure1_san):
    report = san_metric_report(figure1_san, include_diameter=False, rng=1)
    text = format_report(report, title="Fixture SAN")
    assert "Fixture SAN" in text
    for key in report:
        assert key in text


def test_report_accepts_frozen_san_directly(figure1_san):
    frozen = figure1_san.freeze()
    report = san_metric_report(frozen, clustering_samples=500, rng=1)
    assert report["social_nodes"] == 6
    assert report["reciprocity"] == pytest.approx(0.6)


def test_report_freeze_flag_matches_backend_agnostic_keys(figure1_san):
    mutable_report = san_metric_report(
        figure1_san, include_diameter=False, clustering_samples=500, rng=1
    )
    frozen_report = san_metric_report(
        figure1_san.freeze(), include_diameter=False, clustering_samples=500, rng=1
    )
    assert set(mutable_report) == set(frozen_report)
    # Deterministic (non-sampled) metrics agree exactly across backends.
    for key in ("social_nodes", "social_edges", "reciprocity", "social_assortativity"):
        assert mutable_report[key] == pytest.approx(frozen_report[key])


def test_frozen_san_report_extends_headline_metrics(figure1_san):
    from repro.metrics import frozen_san_report

    report = frozen_san_report(
        figure1_san, include_diameter=False, clustering_samples=500, rng=1
    )
    for key in (
        "exact_social_clustering",
        "exact_attribute_clustering",
        "triangles",
        "wcc_count",
        "largest_wcc_size",
        "wcc_fraction",
    ):
        assert key in report
    assert report["wcc_count"] >= 1
    assert 0.0 <= report["wcc_fraction"] <= 1.0
    # Same battery on the already-frozen SAN: identical values.
    frozen_report = frozen_san_report(
        figure1_san.freeze(), include_diameter=False, clustering_samples=500, rng=1
    )
    assert frozen_report["triangles"] == report["triangles"]
    assert frozen_report["wcc_count"] == report["wcc_count"]

"""Tests for degree sequences and distributions."""

import pytest

from repro.metrics import (
    attribute_degrees_of_social_nodes,
    degree_summary,
    log_binned_degree_distribution,
    out_degrees_for_attribute_value,
    social_degrees_of_attribute_nodes,
    social_in_degrees,
    social_out_degrees,
)


def test_out_and_in_degrees(figure1_san):
    out_degrees = social_out_degrees(figure1_san)
    in_degrees = social_in_degrees(figure1_san)
    assert sum(out_degrees) == figure1_san.number_of_social_edges()
    assert sum(in_degrees) == figure1_san.number_of_social_edges()
    assert len(out_degrees) == 6


def test_total_degrees(clique_san):
    # Distinct social neighbors per user, as the clustering kernels read them.
    assert clique_san.freeze().social.undirected_degree_array().tolist() == [5] * 6


def test_attribute_degree_sequences(figure1_san):
    attr_degrees = attribute_degrees_of_social_nodes(figure1_san)
    assert sorted(attr_degrees) == [1, 1, 1, 1, 2, 2]
    attr_social = social_degrees_of_attribute_nodes(figure1_san)
    assert sorted(attr_social) == [2, 2, 2, 2]


def test_log_binned_degree_distribution(figure1_san):
    points = log_binned_degree_distribution(social_out_degrees(figure1_san))
    assert all(density >= 0 for _, density in points)


def test_degree_summary(figure1_san):
    summary = degree_summary(figure1_san)
    assert summary["mean_out_degree"] == pytest.approx(10 / 6)
    assert summary["mean_in_degree"] == pytest.approx(10 / 6)
    assert summary["max_out_degree"] >= summary["mean_out_degree"]
    assert summary["mean_attribute_degree"] == pytest.approx(8 / 6)
    assert summary["mean_attribute_social_degree"] == pytest.approx(2.0)


def test_degree_summary_empty():
    from repro.graph import SAN

    summary = degree_summary(SAN())
    assert summary["mean_out_degree"] == 0.0
    assert summary["max_in_degree"] == 0


def test_out_degrees_for_attribute_value(figure1_san):
    degrees = out_degrees_for_attribute_value(figure1_san, "employer:Google")
    assert sorted(degrees) == sorted(
        [figure1_san.social_out_degree(1), figure1_san.social_out_degree(2)]
    )
    assert out_degrees_for_attribute_value(figure1_san, "employer:Missing") == []

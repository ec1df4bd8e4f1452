"""Tests for the snapshot-series evolution drivers and phase helpers."""

import pytest

from repro.metrics import (
    PhaseBoundaries,
    assortativity_series,
    attribute_density_series,
    clustering_series,
    diameter_series,
    growth_series,
    metric_series,
    phase_averages,
    phase_trends,
    reciprocity_series,
    social_density_series,
)
from repro.metrics.density import social_density


def test_phase_boundaries():
    phases = PhaseBoundaries(phase_one_end=20, phase_two_end=75)
    assert phases.phase_of(1) == 1
    assert phases.phase_of(20) == 1
    assert phases.phase_of(21) == 2
    assert phases.phase_of(75) == 2
    assert phases.phase_of(76) == 3
    assert phases.phase_of(98) == 3


def test_growth_series_monotone(tiny_snapshots):
    snapshots = list(tiny_snapshots)
    series = growth_series(snapshots)
    for key in ("social_nodes", "attribute_nodes", "social_links", "attribute_links"):
        values = [value for _, value in series[key]]
        assert values == sorted(values), f"{key} should never shrink"
        assert values[-1] > 0


def test_metric_series_general(tiny_snapshots):
    snapshots = list(tiny_snapshots)
    series = metric_series(snapshots, social_density)
    assert len(series) == len(snapshots)
    assert series == social_density_series(snapshots)


def test_reciprocity_series_in_unit_interval(tiny_snapshots):
    for _, value in reciprocity_series(list(tiny_snapshots)):
        assert 0.0 <= value <= 1.0


def test_attribute_density_series_positive(tiny_snapshots):
    values = [value for _, value in attribute_density_series(list(tiny_snapshots))]
    assert all(value >= 0 for value in values)
    # Once attributes exist (later snapshots) the density is strictly positive.
    assert values[-1] > 0


def test_clustering_series_social_and_attribute(tiny_snapshots):
    snapshots = list(tiny_snapshots)[-2:]
    social = clustering_series(snapshots, kind="social", num_samples=1500, rng=1)
    attribute = clustering_series(snapshots, kind="attribute", num_samples=1500, rng=1)
    assert len(social) == len(attribute) == 2
    assert all(0.0 <= value <= 1.0 for _, value in social + attribute)
    with pytest.raises(ValueError):
        clustering_series(snapshots, kind="nope")


def test_diameter_series_keys(tiny_snapshots):
    snapshots = list(tiny_snapshots)[-2:]
    series = diameter_series(snapshots, precision=5, num_attribute_pairs=20, rng=2)
    assert set(series) == {"social", "attribute"}
    assert all(value >= 0 for _, value in series["social"])


def test_assortativity_series(tiny_snapshots):
    snapshots = list(tiny_snapshots)[-2:]
    social = assortativity_series(snapshots, kind="social")
    attribute = assortativity_series(snapshots, kind="attribute")
    assert all(-1.0 <= value <= 1.0 for _, value in social + attribute)
    with pytest.raises(ValueError):
        assortativity_series(snapshots, kind="nope")


def test_phase_averages_and_trends():
    series = [(1, 1.0), (10, 2.0), (30, 4.0), (40, 6.0), (80, 3.0), (90, 1.0)]
    phases = PhaseBoundaries(phase_one_end=20, phase_two_end=75)
    averages = phase_averages(series, phases)
    assert averages[1] == pytest.approx(1.5)
    assert averages[2] == pytest.approx(5.0)
    assert averages[3] == pytest.approx(2.0)
    trends = phase_trends(series, phases)
    assert trends[1] == pytest.approx(1.0)
    assert trends[2] == pytest.approx(2.0)
    assert trends[3] == pytest.approx(-2.0)


def test_phase_averages_empty_phase():
    series = [(1, 1.0)]
    averages = phase_averages(series)
    assert averages[1] == 1.0
    assert averages[2] != averages[2]  # NaN for empty phases

"""Unit tests for the statistics helpers."""

import pytest

from repro.utils import (
    log_binned_average,
    log_binned_histogram,
    percentile,
)


def test_percentile_interpolation():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 5
    assert percentile(values, 50) == 3
    assert percentile(values, 25) == pytest.approx(2.0)
    assert percentile([7], 90) == 7


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 150)


def test_log_binned_histogram_density_positive():
    values = [1] * 50 + [10] * 20 + [100] * 5
    points = log_binned_histogram(values)
    assert all(density > 0 for _, density in points)
    # Density at small degrees should exceed density at large degrees.
    assert points[0][1] > points[-1][1]


def test_log_binned_histogram_ignores_non_positive():
    assert log_binned_histogram([0, -1]) == []


def test_log_binned_average_groups_by_x():
    pairs = [(1, 10.0), (1, 20.0), (100, 5.0)]
    points = log_binned_average(pairs)
    assert points[0][1] == pytest.approx(15.0)
    assert points[-1][1] == pytest.approx(5.0)


def test_log_binned_average_empty():
    assert log_binned_average([]) == []


def test_two_sample_ks_identical_samples_is_zero():
    from repro.utils import two_sample_ks_statistic

    sample = [1, 2, 2, 3, 5, 8]
    assert two_sample_ks_statistic(sample, list(sample)) == 0.0


def test_two_sample_ks_disjoint_samples_is_one():
    from repro.utils import two_sample_ks_statistic

    assert two_sample_ks_statistic([1, 2, 3], [10, 11, 12]) == pytest.approx(1.0)


def test_two_sample_ks_handles_ties():
    from repro.utils import two_sample_ks_statistic

    # Heavily tied discrete samples with near-identical CDFs: a tie-unaware
    # merge would report a large gap mid-run; the true statistic is tiny.
    first = [1] * 500 + [2] * 300 + [3] * 200
    second = [1] * 498 + [2] * 302 + [3] * 200
    assert two_sample_ks_statistic(first, second) == pytest.approx(0.002)


def test_two_sample_ks_rejects_empty():
    from repro.utils import two_sample_ks_statistic

    with pytest.raises(ValueError):
        two_sample_ks_statistic([], [1])


def test_ks_threshold_shrinks_with_sample_size():
    from repro.utils import ks_two_sample_threshold

    small = ks_two_sample_threshold(100, 100)
    large = ks_two_sample_threshold(10_000, 10_000)
    assert large < small
    # Looser alpha -> smaller threshold is wrong; stricter alpha -> larger.
    assert ks_two_sample_threshold(100, 100, alpha=0.0001) > small
    with pytest.raises(ValueError):
        ks_two_sample_threshold(0, 10)
    with pytest.raises(ValueError):
        ks_two_sample_threshold(10, 10, alpha=1.5)

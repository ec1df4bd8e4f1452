"""Tests for global and fine-grained reciprocity."""

import pytest

from repro.graph import san_from_edge_lists
from repro.metrics import (
    attribute_bucket,
    fine_grained_reciprocity,
    global_reciprocity,
    reciprocal_edge_count,
)


def test_global_reciprocity_values(figure1_san, clique_san, ring_san):
    # figure1: 6 of 10 directed links are mutual.
    assert global_reciprocity(figure1_san) == pytest.approx(0.6)
    assert global_reciprocity(clique_san) == 1.0
    assert global_reciprocity(ring_san) == 0.0


def test_global_reciprocity_empty():
    from repro.graph import SAN

    assert global_reciprocity(SAN()) == 0.0


def test_reciprocal_edge_count(figure1_san):
    mutual, total = reciprocal_edge_count(figure1_san)
    assert (mutual, total) == (6, 10)


def test_attribute_bucket():
    assert attribute_bucket(0) == 0
    assert attribute_bucket(1) == 1
    assert attribute_bucket(2) == 2
    assert attribute_bucket(7) == 2
    assert attribute_bucket(-1) == 0


def _make_snapshot_pair():
    """Earlier SAN with one-way links; later SAN where some became mutual."""
    earlier = san_from_edge_lists(
        [(1, 2), (3, 4), (5, 6)],
        [(1, "employer", "G"), (2, "employer", "G"), (5, "city", "X"), (6, "city", "Y")],
    )
    later = earlier.copy()
    later.add_social_edge(2, 1)  # the attribute-sharing pair reciprocates
    return earlier, later


def test_fine_grained_reciprocity_buckets():
    earlier, later = _make_snapshot_pair()
    result = fine_grained_reciprocity(earlier, later)
    # Pair (1,2) shares one attribute and reciprocated.
    assert result.average_rate_for_attribute_bucket(1) == pytest.approx(1.0)
    # Pairs (3,4) and (5,6) share no attribute and did not reciprocate.
    assert result.average_rate_for_attribute_bucket(0) == pytest.approx(0.0)
    assert result.average_rate_for_attribute_bucket(2) is None


def test_fine_grained_reciprocity_skips_existing_mutual_links(figure1_san):
    result = fine_grained_reciprocity(figure1_san, figure1_san)
    total_links = sum(total for _, total in result.counts.values())
    # Only the 4 one-way links (1->3, 4->2, 6->4, 3->5) are candidates.
    assert total_links == 4


def test_fine_grained_reciprocity_max_links():
    earlier, later = _make_snapshot_pair()
    result = fine_grained_reciprocity(earlier, later, max_links=1)
    assert sum(total for _, total in result.counts.values()) == 1


def test_reciprocity_by_common_attributes():
    earlier, later = _make_snapshot_pair()
    result = fine_grained_reciprocity(earlier, later)
    rates = {bucket: result.average_rate_for_attribute_bucket(bucket) for bucket in (0, 1)}
    assert rates[1] > rates[0]


def test_series_for_attribute_bucket():
    earlier, later = _make_snapshot_pair()
    result = fine_grained_reciprocity(earlier, later)
    series = result.series_for_attribute_bucket(0)
    assert all(isinstance(social, int) for social, _ in series)
    assert result.rate(0, 0) == pytest.approx(0.0)
    assert result.rate(99, 0) is None

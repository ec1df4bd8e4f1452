"""Freezing at dispatch is transparent: every metric returns the same
result on a mutable ``SAN`` as on its explicit ``freeze()``.

Every operation has one kernel, on the frozen backend; the registry freezes
a mutable input once, through the cached ``frozen_view``.  These tests pin
that the cached view is the graph's current state and that every entry
point (including the composite ones, like ``degree_summary`` and
``global_reciprocity``, and ``fine_grained_reciprocity``'s second graph)
accepts either backend.  The kernels' answers themselves are checked by
the independent oracles in ``tests/test_oracle_*.py``, over the same
inputs (``tests/san_cases.py``).
"""

from __future__ import annotations

import math

import pytest
from san_cases import ATTRIBUTE_TYPES, SEEDS, corner_case_sans, random_san, seeded_sans

from repro.algorithms.clustering import (
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
    clustering_by_degree,
)
from repro.algorithms.triangles import count_directed_triangles
from repro.metrics.attribute_metrics import (
    attribute_clustering_by_type,
    top_attribute_nodes,
)
from repro.metrics.degrees import (
    attribute_degrees_of_social_nodes,
    degree_summary,
    out_degrees_for_attribute_value,
    social_degrees_of_attribute_nodes,
    social_in_degrees,
    social_out_degrees,
)
from repro.metrics.joint_degree import (
    attribute_assortativity,
    attribute_knn,
    social_assortativity,
    social_knn,
)
from repro.metrics.reciprocity import (
    fine_grained_reciprocity,
    global_reciprocity,
    reciprocal_edge_count,
)

@pytest.fixture(params=SEEDS + ["corner"], scope="module")
def san_pair(request):
    """(mutable, frozen) pairs across random seeds plus the corner cases."""
    sans = corner_case_sans() if request.param == "corner" else seeded_sans(request.param)
    return [(san, san.freeze()) for san in sans]


def assert_float_close(left, right):
    assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)


def assert_curve_close(left, right):
    assert len(left) == len(right)
    for (degree_l, value_l), (degree_r, value_r) in zip(left, right):
        assert degree_l == degree_r
        assert_float_close(value_l, value_r)


class TestDegreeParity:
    def test_degree_sequences(self, san_pair):
        for san, frozen in san_pair:
            for op in (
                social_out_degrees,
                social_in_degrees,
                attribute_degrees_of_social_nodes,
                social_degrees_of_attribute_nodes,
            ):
                assert op(frozen).tolist() == op(san).tolist(), op.__name__

    def test_degree_summary(self, san_pair):
        for san, frozen in san_pair:
            assert degree_summary(frozen) == degree_summary(san)

    def test_out_degrees_for_attribute_value(self, san_pair):
        for san, frozen in san_pair:
            for attribute in san.attribute_nodes():
                assert sorted(out_degrees_for_attribute_value(frozen, attribute)) == sorted(
                    out_degrees_for_attribute_value(san, attribute)
                )
            assert out_degrees_for_attribute_value(frozen, "missing:x") == []


class TestReciprocityParity:
    def test_global_reciprocity(self, san_pair):
        for san, frozen in san_pair:
            assert reciprocal_edge_count(frozen) == reciprocal_edge_count(san)
            assert_float_close(global_reciprocity(frozen), global_reciprocity(san))

    def test_fine_grained_reciprocity(self):
        earlier = random_san(7, num_edges=120)
        later = random_san(7, num_edges=240)  # superset-ish later snapshot
        mutable = fine_grained_reciprocity(earlier, later)
        frozen = fine_grained_reciprocity(earlier.freeze(), later.freeze())
        assert frozen.counts == mutable.counts


class TestJointDegreeParity:
    def test_social_knn(self, san_pair):
        for san, frozen in san_pair:
            assert_curve_close(social_knn(frozen), social_knn(san))

    def test_attribute_knn(self, san_pair):
        for san, frozen in san_pair:
            assert_curve_close(attribute_knn(frozen), attribute_knn(san))

    def test_assortativities(self, san_pair):
        for san, frozen in san_pair:
            assert_float_close(social_assortativity(frozen), social_assortativity(san))
            assert_float_close(
                attribute_assortativity(frozen), attribute_assortativity(san)
            )


class TestClusteringParity:
    def test_average_clustering(self, san_pair):
        for san, frozen in san_pair:
            assert_float_close(
                average_social_clustering_coefficient(frozen),
                average_social_clustering_coefficient(san),
            )
            assert_float_close(
                average_attribute_clustering_coefficient(frozen),
                average_attribute_clustering_coefficient(san),
            )

    def test_clustering_by_degree(self, san_pair):
        for san, frozen in san_pair:
            assert_curve_close(
                clustering_by_degree(frozen, "social"), clustering_by_degree(san, "social")
            )
            assert_curve_close(
                clustering_by_degree(frozen, "attribute"),
                clustering_by_degree(san, "attribute"),
            )

    def test_per_type_clustering(self, san_pair):
        for san, frozen in san_pair:
            mutable_by_type = attribute_clustering_by_type(san)
            frozen_by_type = attribute_clustering_by_type(frozen)
            assert list(frozen_by_type) == list(mutable_by_type)
            for attr_type, value in mutable_by_type.items():
                assert_float_close(frozen_by_type[attr_type], value)


class TestAttributeMetricParity:
    def test_top_attribute_nodes(self, san_pair):
        for san, frozen in san_pair:
            assert top_attribute_nodes(frozen) == top_attribute_nodes(san)
            for attr_type in ATTRIBUTE_TYPES:
                assert top_attribute_nodes(frozen, attr_type, 3) == top_attribute_nodes(
                    san, attr_type, 3
                )


class TestTriangleParity:
    def test_triangle_count(self, san_pair):
        for san, frozen in san_pair:
            assert count_directed_triangles(frozen) == count_directed_triangles(san)


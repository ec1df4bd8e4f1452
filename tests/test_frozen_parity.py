"""Property-style parity tests: every ported metric must return identical
results on the mutable ``SAN`` and the frozen CSR-backed ``FrozenSAN``.

The fixtures sweep several random synthetic SANs (different seeds, sizes, and
densities, plus degenerate corner cases) so the vectorized kernels are
exercised on empty rows, isolated nodes, reciprocal pairs, self-free graphs
and skewed attribute communities alike.  Integer-valued metrics must match
exactly; float-valued metrics must match to within accumulation-order noise.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms.clustering import (
    average_attribute_clustering_coefficient,
    average_clustering_for_attribute_type,
    average_social_clustering_coefficient,
    clustering_by_degree,
    directed_links_among,
    node_clustering_coefficient,
)
from repro.algorithms.triangles import count_directed_triangles
from repro.graph import SAN
from repro.metrics.attribute_metrics import (
    attribute_clustering_by_type,
    attribute_link_counts_by_type,
    attribute_type_counts,
    top_attribute_nodes,
)
from repro.metrics.degrees import (
    attribute_degrees_of_social_nodes,
    degree_summary,
    out_degrees_for_attribute_value,
    social_degrees_of_attribute_nodes,
    social_in_degrees,
    social_out_degrees,
    social_total_degrees,
)
from repro.metrics.joint_degree import (
    attribute_assortativity,
    attribute_knn,
    social_assortativity,
    social_knn,
    undirected_degree_assortativity,
)
from repro.metrics.reciprocity import (
    fine_grained_reciprocity,
    global_reciprocity,
    reciprocal_edge_count,
)

ATTRIBUTE_TYPES = ["employer", "school", "major", "city"]


def random_san(
    seed: int,
    num_social: int = 60,
    num_edges: int = 240,
    num_attribute_values: int = 8,
    num_attribute_links: int = 70,
) -> SAN:
    """A random synthetic SAN with reciprocal links and shared attributes."""
    rng = random.Random(seed)
    san = SAN()
    for node in range(num_social):
        san.add_social_node(node)
    for _ in range(num_edges):
        source = rng.randrange(num_social)
        target = rng.randrange(num_social)
        if source == target:
            continue
        san.add_social_edge(source, target)
        if rng.random() < 0.4:
            san.add_social_edge(target, source)
    for _ in range(num_attribute_links):
        social = rng.randrange(num_social)
        attr_type = rng.choice(ATTRIBUTE_TYPES)
        value = f"v{rng.randrange(num_attribute_values)}"
        san.add_attribute_edge(
            social, f"{attr_type}:{value}", attr_type=attr_type, value=value
        )
    return san


def corner_case_sans():
    """Degenerate SANs the kernels must survive: empty, edgeless, tiny."""
    empty = SAN()

    edgeless = SAN()
    for node in range(5):
        edgeless.add_social_node(node)

    no_attributes = SAN()
    no_attributes.add_social_edge(1, 2)
    no_attributes.add_social_edge(2, 1)

    lone_pair = SAN()
    lone_pair.add_attribute_edge(1, "city:SF", attr_type="city", value="SF")
    return [empty, edgeless, no_attributes, lone_pair]


SEEDS = [101, 202, 303]


@pytest.fixture(params=SEEDS + ["corner"], scope="module")
def san_pair(request):
    """(mutable, frozen) pairs across random seeds plus the corner cases."""
    if request.param == "corner":
        sans = corner_case_sans()
    else:
        sans = [
            random_san(request.param),
            random_san(request.param + 1, num_social=25, num_edges=40, num_attribute_links=15),
        ]
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
            assert social_out_degrees(frozen) == social_out_degrees(san)
            assert social_in_degrees(frozen) == social_in_degrees(san)
            assert social_total_degrees(frozen) == social_total_degrees(san)
            assert attribute_degrees_of_social_nodes(frozen) == attribute_degrees_of_social_nodes(san)
            assert social_degrees_of_attribute_nodes(frozen) == social_degrees_of_attribute_nodes(san)

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
                undirected_degree_assortativity(frozen),
                undirected_degree_assortativity(san),
            )
            assert_float_close(
                attribute_assortativity(frozen), attribute_assortativity(san)
            )


class TestClusteringParity:
    def test_node_clustering(self, san_pair):
        for san, frozen in san_pair:
            for node in san.social_nodes():
                assert_float_close(
                    node_clustering_coefficient(frozen, node),
                    node_clustering_coefficient(san, node),
                )
            for attribute in san.attribute_nodes():
                assert_float_close(
                    node_clustering_coefficient(frozen, attribute),
                    node_clustering_coefficient(san, attribute),
                )

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

    def test_directed_links_among_subsets(self, san_pair):
        rng = random.Random(99)
        for san, frozen in san_pair:
            nodes = list(san.social_nodes())
            for _ in range(5):
                subset = rng.sample(nodes, min(len(nodes), 8)) if nodes else []
                assert directed_links_among(frozen, subset) == directed_links_among(san, subset)

    def test_per_type_clustering(self, san_pair):
        for san, frozen in san_pair:
            for attr_type in san.attributes.attribute_types():
                assert_float_close(
                    average_clustering_for_attribute_type(frozen, attr_type),
                    average_clustering_for_attribute_type(san, attr_type),
                )
            mutable_by_type = attribute_clustering_by_type(san)
            frozen_by_type = attribute_clustering_by_type(frozen)
            assert list(frozen_by_type) == list(mutable_by_type)
            for attr_type, value in mutable_by_type.items():
                assert_float_close(frozen_by_type[attr_type], value)


class TestAttributeMetricParity:
    def test_type_counts(self, san_pair):
        for san, frozen in san_pair:
            assert attribute_type_counts(frozen) == attribute_type_counts(san)
            assert attribute_link_counts_by_type(frozen) == attribute_link_counts_by_type(san)

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


"""Differential oracle for triangles and clustering (Sections 3.4, 4.1, 5.2).

On hypothesis-generated small SANs, with self-loops allowed, the triangle
count, both average coefficients and ``clustering_by_degree`` must agree
with networkx.  Let ``D`` be the social digraph without its self-loops and
``U`` its undirected projection; then

* the triangle count is ``sum(nx.triangles(U).values()) // 3``;
* ``c(u)`` is the edge count of ``D`` restricted to ``U[u]`` over
  ``k(k - 1)`` with ``k = len(U[u])``, and 0 when ``k < 2``;
* ``c(a)`` is the same with the members of ``a`` in place of ``U[u]``;
* the averages and the per-degree curves are the plain and per-degree means
  of those values (degrees below 2 are left out of the curves).

Every backend is checked: the mutable SAN, its freeze, and an mmap-backed
spill of the freeze.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.algorithms.clustering import (  # noqa: E402
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
    clustering_by_degree,
)
from repro.algorithms.triangles import count_directed_triangles  # noqa: E402
from repro.graph import SAN  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "count_directed_triangles",
    "average_social_clustering_coefficient",
    "average_attribute_clustering_coefficient",
    "clustering_by_degree",
)

NUM_USERS = 12
TOLERANCE = 1e-12

edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, NUM_USERS - 1)),
    max_size=40,
)
membership_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, 4)),
    max_size=20,
)


def _build_san(edges, memberships) -> SAN:
    san = SAN()
    for user in range(NUM_USERS):
        san.add_social_node(user)
    for source, target in edges:
        san.add_social_edge(source, target)
    for user, value in memberships:
        san.add_attribute_edge(user, f"city:{value}", attr_type="city", value=str(value))
    return san


def networkx_oracle(san):
    """Triangles plus ``(degree, coefficient)`` per social and attribute node."""
    directed = nx.DiGraph()
    directed.add_nodes_from(san.social_nodes())
    directed.add_edges_from(
        (source, target) for source, target in san.social_edges() if source != target
    )
    undirected = nx.Graph(directed)

    def degree_and_coefficient(members):
        k = len(members)
        if k < 2:
            return k, 0.0
        return k, directed.subgraph(members).number_of_edges() / (k * (k - 1))

    social = {
        user: degree_and_coefficient(list(undirected[user])) for user in directed
    }
    attribute = {
        attribute: degree_and_coefficient(list(san.attributes.members_of(attribute)))
        for attribute in san.attribute_nodes()
    }
    triangles = sum(nx.triangles(undirected).values()) // 3
    return triangles, social, attribute


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _by_degree(nodes):
    groups = {}
    for degree, coefficient in nodes.values():
        if degree >= 2:
            groups.setdefault(degree, []).append(coefficient)
    return sorted((degree, _mean(values)) for degree, values in groups.items())


def _assert_close(actual, expected, context):
    assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=TOLERANCE), (
        context,
        actual,
        expected,
    )


def _assert_curve(actual, expected, context):
    assert [degree for degree, _ in actual] == [degree for degree, _ in expected], context
    for (degree, value), (_, reference) in zip(actual, expected):
        _assert_close(value, reference, (context, degree))


def _check(name, call, triangles, social, attribute):
    assert call(count_directed_triangles) == triangles, name
    _assert_close(
        call(average_social_clustering_coefficient),
        _mean(c for _, c in social.values()),
        (name, "C_s"),
    )
    _assert_close(
        call(average_attribute_clustering_coefficient),
        _mean(c for _, c in attribute.values()),
        (name, "C_a"),
    )
    _assert_curve(call(clustering_by_degree, "social"), _by_degree(social), (name, "social"))
    _assert_curve(
        call(clustering_by_degree, "attribute"), _by_degree(attribute), (name, "attribute")
    )


@given(edge_lists, membership_lists)
@settings(max_examples=40, deadline=None)
# Two triangles, one fully reciprocal and one a directed cycle, each with a
# self-loop on a vertex, plus attributes covering a triangle, a reciprocal
# pair, a single member, and a user with no links at all.
@example(
    edges=[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (0, 0),
           (3, 4), (4, 5), (5, 3), (4, 4), (6, 7), (7, 6)],
    memberships=[(0, 0), (1, 0), (2, 0), (6, 1), (7, 1), (3, 2), (11, 3), (4, 4), (5, 4)],
)
def test_triangles_and_clustering_match_networkx(edges, memberships):
    san = _build_san(edges, memberships)
    triangles, social, attribute = networkx_oracle(san)
    frozen = san.freeze()
    graphs = {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}
    for name, graph in graphs.items():
        _check(
            name,
            lambda fn, *args, graph=graph: fn(graph, *args),
            triangles,
            social,
            attribute,
        )

"""Differential oracle for the knn curves and assortativity coefficients
(Sections 3.6 and 4.1).

On hypothesis SANs of at most 12 users — with self-loops, reciprocal pairs,
isolated users, int or str labels, users inserted in shuffled order, and up
to 5 attributes — each function must agree with networkx.  Let ``D`` be the
social digraph and ``B`` the undirected user-attribute graph; then

* ``social_knn`` is ``nx.average_degree_connectivity(D, source="out",
  target="in")`` without its out-degree-0 entry;
* ``social_assortativity`` is ``nx.degree_pearson_correlation_coefficient(D,
  x="out", y="in")``;
* ``attribute_knn`` is ``nx.average_degree_connectivity(B, nodes=<the
  attribute nodes>)`` without its degree-0 entry;
* ``attribute_assortativity`` is the Pearson correlation
  (``statistics.correlation``) over one (x, y) pair per attribute link,
  built from networkx degrees.

Where a correlation is undefined — fewer than two links, or one side's
degree constant — networkx and ``statistics`` give NaN or raise, and this
repository gives 0.0; the test pins 0.0.

The undirected degree, which the clustering kernels group users by, is
this repository's: distinct neighbours other than the node itself, so a
node with a self-loop has one less than ``|succ ∪ pred|``;
``test_undirected_degree_leaves_out_the_node_itself`` pins the convention.

Every backend is checked: the mutable SAN, its freeze, and an mmap-backed
spill of the freeze.
"""

import math
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.graph import SAN  # noqa: E402
from repro.metrics import (  # noqa: E402
    attribute_assortativity,
    attribute_knn,
    social_assortativity,
    social_knn,
)

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "social_knn",
    "social_assortativity",
    "attribute_knn",
    "attribute_assortativity",
)

MAX_USERS = 12
NUM_ATTRIBUTES = 5
TOLERANCE = 1e-12


@st.composite
def san_specs(draw):
    """(insertion order, links, attribute links, string labels?) over ``0..n-1``."""
    n = draw(st.integers(0, MAX_USERS))
    order = draw(st.permutations(range(n)))
    users = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(users, users), max_size=3 * n)) if n else []
    memberships = (
        draw(st.lists(st.tuples(users, st.integers(0, NUM_ATTRIBUTES - 1)), max_size=2 * n))
        if n
        else []
    )
    return order, edges, memberships, draw(st.booleans())


def _build(order, edges, memberships, string_labels) -> SAN:
    label = (lambda i: f"user-{i}") if string_labels else (lambda i: i)
    san = SAN()
    for node in order:
        san.add_social_node(label(node))
    for source, target in edges:
        san.add_social_edge(label(source), label(target))
    for user, value in memberships:
        san.add_attribute_edge(
            label(user), f"city:{value}", attr_type="city", value=str(value)
        )
    return san


def _defined(pairs):
    """Whether a Pearson correlation over ``(x, y)`` pairs is defined."""
    return len(pairs) >= 2 and all(len(set(side)) >= 2 for side in zip(*pairs))


def _pearson(pairs):
    """``statistics.correlation`` over ``(x, y)`` pairs; 0.0 where undefined."""
    return statistics.correlation(*zip(*pairs)) if _defined(pairs) else 0.0


def _undirected_degrees(directed):
    return {
        node: len((set(directed.successors(node)) | set(directed.predecessors(node))) - {node})
        for node in directed
    }


def networkx_oracle(san):
    """Every function's expected value, computed on networkx graphs."""
    directed = nx.DiGraph()
    directed.add_nodes_from(san.social_nodes())
    directed.add_edges_from(san.social_edges())
    bipartite = nx.Graph()
    bipartite.add_nodes_from(("user", user) for user in san.social_nodes())
    attributes = [("attribute", attribute) for attribute in san.attribute_nodes()]
    bipartite.add_nodes_from(attributes)
    bipartite.add_edges_from(
        (("user", user), ("attribute", attribute))
        for user, attribute in san.attribute_edges()
    )

    out_in_pairs = [(directed.out_degree(u), directed.in_degree(v)) for u, v in directed.edges()]
    # networkx returns NaN (with a warning) where the correlation is undefined.
    social_r = (
        nx.degree_pearson_correlation_coefficient(directed, x="out", y="in")
        if _defined(out_in_pairs)
        else 0.0
    )
    member_pairs = [
        (bipartite.degree[attribute], bipartite.degree[member])
        for attribute in attributes
        for member in bipartite[attribute]
    ]
    return {
        social_knn: _curve(
            nx.average_degree_connectivity(directed, source="out", target="in")
        ),
        social_assortativity: social_r,
        attribute_knn: _curve(nx.average_degree_connectivity(bipartite, nodes=attributes)),
        attribute_assortativity: _pearson(member_pairs),
    }


def _curve(connectivity):
    return sorted((k, value) for k, value in connectivity.items() if k > 0)


def _backends(san: SAN):
    frozen = san.freeze()
    return {
        "mutable": san,
        "frozen": frozen,
        "mmap": spill_to_mmap(frozen),
    }


def _assert_close(actual, expected, context):
    assert math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE), (
        context,
        actual,
        expected,
    )


@given(san_specs())
@settings(max_examples=60, deadline=None)
# Reciprocal pairs, self-loops on a hub and a leaf, a one-way chain, an
# isolated user, and attributes shared by two, three and one user.
@example(
    spec=(
        [5, 0, 3, 1, 4, 2, 6],
        [(0, 1), (1, 0), (0, 2), (2, 0), (0, 0), (3, 3), (3, 0), (4, 3), (1, 2)],
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (0, 2), (6, 3)],
        True,
    )
)
def test_knn_and_assortativity_match_networkx(spec):
    san = _build(*spec)
    expected = networkx_oracle(san)
    for name, graph in _backends(san).items():
        for function, reference in expected.items():
            actual = function(graph)
            context = (name, function.__name__)
            if isinstance(reference, list):
                assert [k for k, _ in actual] == [k for k, _ in reference], context
                for (k, value), (_, want) in zip(actual, reference):
                    _assert_close(value, want, (*context, k))
            else:
                _assert_close(actual, reference, context)


def test_undirected_degree_leaves_out_the_node_itself():
    """Self-loops separate the two conventions; this repository's is pinned."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 2), (3, 2), (3, 1), (1, 0)]
    san = _build(range(4), edges, [], False)
    directed = nx.DiGraph(edges)
    without_self = _undirected_degrees(directed)
    with_self = {
        node: len(set(directed.successors(node)) | set(directed.predecessors(node)))
        for node in directed
    }
    assert (without_self[2], with_self[2]) == (3, 4)
    for name, graph in _backends(san).items():
        degrees = graph.freeze().social.undirected_degree_array().tolist()
        assert degrees == [without_self[u] for u in graph.social_nodes()], name

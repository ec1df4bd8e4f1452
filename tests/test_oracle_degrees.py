"""Differential oracle for the five degree operations (Figures 5, 10 and 14).

On hypothesis SANs of at most 12 users and 6 attributes — with self-loops,
reciprocal pairs, isolated users, attributes without members, int or str
labels, and users inserted in shuffled order — each degree operation must
match networkx:

* ``social_out_degrees`` / ``social_in_degrees``: the out- and in-degrees of
  the social ``nx.DiGraph`` (a self-loop counts once in each);
* ``attribute_degrees_of_social_nodes`` / ``social_degrees_of_attribute_nodes``:
  the degrees of the two sides of the social–attribute ``nx.Graph``;
* ``out_degrees_for_attribute_value``: the social out-degrees of an
  attribute's neighbours in that bipartite graph, as a multiset (the
  operation returns them in member order), and ``[]`` for a label that is
  not an attribute.

The per-node int64 arrays are in the backend's own node iteration order,
which is the order the operations document.  Every backend is checked: the
mutable SAN, its freeze, and an mmap-backed spill of the freeze.  The
Figure 16–17 stages and Theorems 1–2 read every generated model SAN through
these operations.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.graph import SAN  # noqa: E402
from repro.metrics import (  # noqa: E402
    attribute_degrees_of_social_nodes,
    out_degrees_for_attribute_value,
    social_degrees_of_attribute_nodes,
    social_in_degrees,
    social_out_degrees,
)

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "social_out_degrees",
    "social_in_degrees",
    "attribute_degrees_of_social_nodes",
    "social_degrees_of_attribute_nodes",
    "out_degrees_for_attribute_value",
)

MAX_NODES = 12
MAX_ATTRIBUTES = 6

#: The four operations that return one degree per node.
PER_NODE_OPS = (
    social_out_degrees,
    social_in_degrees,
    attribute_degrees_of_social_nodes,
    social_degrees_of_attribute_nodes,
)


@st.composite
def san_specs(draw):
    """(insertion order, social edges, attribute count, attribute links, str labels?)."""
    n = draw(st.integers(0, MAX_NODES))
    order = draw(st.permutations(range(n)))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    num_attributes = draw(st.integers(0, MAX_ATTRIBUTES))
    links = []
    if n and num_attributes:
        links = draw(
            st.lists(st.tuples(ids, st.integers(0, num_attributes - 1)), max_size=2 * n)
        )
    return order, edges, num_attributes, links, draw(st.booleans())


def _labels(string_labels):
    if string_labels:
        return (lambda i: f"user-{i}"), (lambda j: f"attr-{j}")
    return (lambda i: i), (lambda j: 1000 + j)


def _build(order, edges, num_attributes, links, string_labels) -> SAN:
    user, attribute = _labels(string_labels)
    san = SAN()
    for node in order:
        san.add_social_node(user(node))
    # Attributes are registered up front, so one without members survives.
    for j in range(num_attributes):
        san.add_attribute_node(attribute(j), attr_type=f"type-{j % 2}")
    for source, target in edges:
        san.add_social_edge(user(source), user(target))
    for node, j in links:
        san.add_attribute_edge(user(node), attribute(j), attr_type=f"type-{j % 2}")
    return san


def _backends(san: SAN):
    """``name -> (graph, call)``; ``call(op, graph, *args)`` runs one op."""
    frozen = san.freeze()

    def dispatched(op, graph, *args):
        return op(graph, *args)

    return {
        "mutable": (san, dispatched),
        "frozen": (frozen, dispatched),
        "mmap": (spill_to_mmap(frozen), dispatched),
    }


def _references(san: SAN):
    """The social digraph and the social–attribute bipartite graph in networkx."""
    social = nx.DiGraph()
    social.add_nodes_from(san.social_nodes())
    social.add_edges_from(san.social_edges())
    bipartite = nx.Graph()
    bipartite.add_nodes_from(("social", node) for node in san.social_nodes())
    bipartite.add_nodes_from(("attribute", node) for node in san.attribute_nodes())
    bipartite.add_edges_from(
        (("social", node), ("attribute", attribute)) for node, attribute in san.attribute_edges()
    )
    return social, bipartite


def _expected(op, graph, social, bipartite):
    """What networkx says ``op`` returns on ``graph``, in its iteration order."""
    users = list(graph.social_nodes())
    if op is social_out_degrees:
        return [social.out_degree(node) for node in users]
    if op is social_in_degrees:
        return [social.in_degree(node) for node in users]
    if op is attribute_degrees_of_social_nodes:
        return [bipartite.degree(("social", node)) for node in users]
    return [bipartite.degree(("attribute", node)) for node in graph.attribute_nodes()]


@pytest.mark.parametrize("op", PER_NODE_OPS, ids=lambda op: op.__name__)
@given(spec=san_specs())
@settings(max_examples=40, deadline=None)
# A reciprocal pair, a one-way link, a self-loop, an isolated user, an
# attribute without members and one held by three users.
@example(
    spec=(
        [4, 0, 3, 1, 2],
        [(0, 1), (1, 0), (1, 2), (3, 3)],
        3,
        [(0, 0), (1, 0), (3, 0), (3, 1)],
        True,
    )
)
def test_per_node_degrees_match_networkx(op, spec):
    san = _build(*spec)
    social, bipartite = _references(san)
    for name, (graph, call) in _backends(san).items():
        got = call(op, graph)
        assert got.dtype == np.int64, name
        assert got.tolist() == _expected(op, graph, social, bipartite), name


@given(spec=san_specs())
@settings(max_examples=40, deadline=None)
@example(spec=([2, 0, 1], [(0, 1), (1, 0), (0, 0), (2, 0)], 2, [(0, 0), (1, 0), (2, 0)], False))
def test_out_degrees_for_attribute_value_match_networkx(spec):
    san = _build(*spec)
    social, bipartite = _references(san)
    # Neither label is an attribute node: an unknown one and a user.
    not_attributes = ["no-such-attribute", *list(san.social_nodes())[:1]]
    for name, (graph, call) in _backends(san).items():
        for attribute in graph.attribute_nodes():
            members = [node for _, node in bipartite.neighbors(("attribute", attribute))]
            got = call(out_degrees_for_attribute_value, graph, attribute)
            assert sorted(got) == sorted(social.out_degree(node) for node in members), name
        for label in not_attributes:
            assert call(out_degrees_for_attribute_value, graph, label) == [], name

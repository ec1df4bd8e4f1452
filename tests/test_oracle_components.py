"""Differential oracle for weak components (Section 2.2).

On hypothesis-generated digraphs of at most 12 nodes — with self-loops,
isolated nodes, int or str labels, and nodes inserted in shuffled order —
``weakly_connected_components`` must return the same node sets as
``nx.weakly_connected_components``.  The list order is part of the
contract too: size descending, ties broken by the earliest member in
node-iteration order.

Every backend is checked: the mutable graph, its freeze, and an
mmap-backed spill of the freeze.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.algorithms.components import weakly_connected_components  # noqa: E402
from repro.graph import DiGraph  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = ("weakly_connected_components",)

MAX_NODES = 12


@st.composite
def graph_specs(draw):
    """(insertion order, edges, string labels?) over node ids ``0..n-1``."""
    n = draw(st.integers(0, MAX_NODES))
    order = draw(st.permutations(range(n)))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    return order, edges, draw(st.booleans())


def _build(order, edges, string_labels) -> DiGraph:
    label = (lambda i: f"user-{i}") if string_labels else (lambda i: i)
    graph = DiGraph()
    for node in order:
        graph.add_node(label(node))
    for source, target in edges:
        graph.add_edge(label(source), label(target))
    return graph


def networkx_oracle(graph):
    """The weak components as a set of frozen node sets."""
    reference = nx.DiGraph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    return {frozenset(c) for c in nx.weakly_connected_components(reference)}


def _assert_matches(name, components, expected, order):
    assert {frozenset(c) for c in components} == expected, name
    assert len(components) == len(expected), name
    position = {node: index for index, node in enumerate(order)}
    ranks = [(-len(c), min(position[node] for node in c)) for c in components]
    assert ranks == sorted(ranks), (name, components)


@given(graph_specs())
@settings(max_examples=60, deadline=None)
# Equal-size components whose earliest members are inserted out of label
# order, a self-loop on an isolated node, a 3-cycle inside a larger weak
# component, and a reciprocal pair.
@example(
    spec=(
        [9, 4, 0, 7, 2, 5, 1, 8, 3, 6, 10, 11],
        [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 4), (6, 6), (7, 8), (9, 10)],
        True,
    )
)
def test_components_match_networkx(spec):
    graph = _build(*spec)
    weak = networkx_oracle(graph)
    order = list(graph.nodes())
    frozen = graph.freeze()
    graphs = {"mutable": graph, "frozen": frozen, "mmap": spill_to_mmap(frozen)}
    for name, candidate in graphs.items():
        assert list(candidate.nodes()) == order, name
        _assert_matches(name, weakly_connected_components(candidate), weak, order)

"""Differential oracle for directed BFS distances (Section 3.3).

On hypothesis-generated digraphs of at most 12 nodes — with self-loops,
isolated nodes, int or str labels, and nodes inserted in shuffled order —
``bfs_distances(graph, source, max_depth)`` must equal
``nx.single_source_shortest_path_length(graph, source, cutoff=max_depth)``
from every source, with and without a depth cutoff.

Every backend is checked: the mutable graph, its freeze, and an
mmap-backed spill of the freeze.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.algorithms.traversal import bfs_distances  # noqa: E402
from repro.graph import DiGraph  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "bfs_distances",
)

MAX_NODES = 12


@st.composite
def graph_specs(draw):
    """(insertion order, edges, string labels?, cutoff) over node ids ``0..n-1``."""
    n = draw(st.integers(1, MAX_NODES))
    order = draw(st.permutations(range(n)))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    cutoff = draw(st.one_of(st.none(), st.integers(0, 4)))
    return order, edges, draw(st.booleans()), cutoff


def _build(order, edges, string_labels) -> DiGraph:
    label = (lambda i: f"user-{i}") if string_labels else (lambda i: i)
    graph = DiGraph()
    for node in order:
        graph.add_node(label(node))
    for source, target in edges:
        graph.add_edge(label(source), label(target))
    return graph


@given(graph_specs())
@settings(max_examples=60, deadline=None)
# A directed path 0 -> 1 -> 2 -> 3 with a back edge, a self-loop and an
# isolated node, cut off at depth 2.
@example(spec=([3, 0, 4, 2, 1], [(0, 1), (1, 2), (2, 3), (3, 1), (2, 2)], False, 2))
def test_bfs_distances_match_networkx(spec):
    order, edges, string_labels, cutoff = spec
    graph = _build(order, edges, string_labels)
    reference = nx.DiGraph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    frozen = graph.freeze()
    backends = {
        "mutable": bfs_distances,
        "frozen": bfs_distances,
        "mmap": bfs_distances,
    }
    graphs = {
        "mutable": graph,
        "frozen": frozen,
        "mmap": spill_to_mmap(frozen),
    }
    for source in graph.nodes():
        for max_depth in {None, cutoff}:
            expected = nx.single_source_shortest_path_length(
                reference, source, cutoff=max_depth
            )
            for name, run in backends.items():
                assert run(graphs[name], source, max_depth=max_depth) == expected, (
                    name,
                    source,
                    max_depth,
                )

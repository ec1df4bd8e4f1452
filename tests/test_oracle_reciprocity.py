"""Differential oracle for global reciprocity (Section 3.2).

On hypothesis SANs of at most 12 users — with self-loops, isolated users,
int or str labels, and users inserted in shuffled order —
``reciprocal_edge_count`` must return ``(mutual, total)`` counted from
networkx's edge set, and ``global_reciprocity`` their ratio (0.0 without
links).

The mutual count is taken from the edge set, not from
``nx.overall_reciprocity``: this repository counts a self-loop as a mutual
link (its reverse is itself), networkx counts it as not reciprocated, and
the test pins this repository's convention.

Every backend is checked: the mutable SAN, its freeze, and an mmap-backed
spill of the freeze.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.graph import SAN  # noqa: E402
from repro.metrics import global_reciprocity, reciprocal_edge_count  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "reciprocal_edge_count",
)

MAX_NODES = 12


@st.composite
def san_specs(draw):
    """(insertion order, edges, string labels?) over user ids ``0..n-1``."""
    n = draw(st.integers(0, MAX_NODES))
    order = draw(st.permutations(range(n)))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    return order, edges, draw(st.booleans())


def _build(order, edges, string_labels) -> SAN:
    label = (lambda i: f"user-{i}") if string_labels else (lambda i: i)
    san = SAN()
    for node in order:
        san.add_social_node(label(node))
    for source, target in edges:
        san.add_social_edge(label(source), label(target))
    return san


def _backends(san: SAN):
    frozen = san.freeze()
    return {
        "mutable": (reciprocal_edge_count, san),
        "frozen": (reciprocal_edge_count, frozen),
        "mmap": (reciprocal_edge_count, spill_to_mmap(frozen)),
    }


@given(san_specs())
@settings(max_examples=60, deadline=None)
# A reciprocal pair, a one-way link, a self-loop and an isolated user.
@example(spec=([4, 0, 3, 1, 2], [(0, 1), (1, 0), (1, 2), (3, 3)], True))
def test_reciprocal_edge_count_matches_networkx(spec):
    san = _build(*spec)
    reference = nx.DiGraph()
    reference.add_nodes_from(san.social_nodes())
    reference.add_edges_from(san.social_edges())
    mutual = sum(1 for u, v in reference.edges() if reference.has_edge(v, u))
    total = reference.number_of_edges()
    for name, (count, graph) in _backends(san).items():
        assert count(graph) == (mutual, total), name
        assert global_reciprocity(graph) == (mutual / total if total else 0.0), name


def test_a_self_loop_counts_as_mutual_here_but_not_in_networkx():
    san = _build([0], [(0, 0)], False)
    for name, (count, graph) in _backends(san).items():
        assert count(graph) == (1, 1), name
        assert global_reciprocity(graph) == 1.0, name
    assert nx.overall_reciprocity(nx.DiGraph([(0, 0)])) == 0.0

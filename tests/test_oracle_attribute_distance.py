"""Differential oracle for the attribute distance (Section 4.1).

``attribute_distance`` is one multi-source BFS.  On hypothesis-generated
small SANs it must agree with two independent references: networkx shortest
paths minimised over member pairs, and the per-source loop it replaced (one
BFS per member of the first attribute).  Every backend is checked: the
mutable SAN, its freeze, an mmap-backed spill of the freeze, and the portable
body run on the freeze.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from repro.algorithms import attribute_distance, bfs_distances  # noqa: E402
from repro.graph import SAN, spill_to_mmap  # noqa: E402

NUM_USERS = 12
DEPTHS = (None, 0, 1, 2)

edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, NUM_USERS - 1)),
    max_size=30,
)
membership_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, 4)),
    min_size=1,
    max_size=16,
)


def _build_san(edges, memberships) -> SAN:
    san = SAN()
    for user in range(NUM_USERS):
        san.add_social_node(user)
    for source, target in edges:
        if source != target:
            san.add_social_edge(source, target)
    for user, value in memberships:
        san.add_attribute_edge(user, f"city:{value}", attr_type="city", value=str(value))
    return san


def networkx_attribute_distance(san, first, second, max_depth):
    """1 + the minimum networkx shortest-path length over member pairs."""
    graph = nx.DiGraph()
    graph.add_nodes_from(san.social_nodes())
    graph.add_edges_from(san.social_edges())
    targets = san.attributes.members_of(second)
    lengths = [
        length
        for source in san.attributes.members_of(first)
        for target, length in nx.single_source_shortest_path_length(
            graph, source, cutoff=max_depth
        ).items()
        if target in targets
    ]
    return min(lengths) + 1 if lengths else None


def per_source_attribute_distance(san, first, second, max_depth):
    """The implementation the multi-source BFS replaced: one BFS per member."""
    members_a = san.attributes.members_of(first)
    members_b = set(san.attributes.members_of(second))
    if not members_a or not members_b:
        return None
    if members_a & members_b:
        return 1
    best = None
    for source in members_a:
        distances = bfs_distances(san.social, source, max_depth=max_depth)
        for target in members_b:
            distance = distances.get(target)
            if distance is not None and (best is None or distance < best):
                best = distance
    return None if best is None else best + 1


@given(edge_lists, membership_lists)
@settings(max_examples=40, deadline=None)
# A chain 0 -> 1 -> 2 -> 3 with members at either end and one stranded
# member: shared members, distances cut by every depth, unreachable pairs.
@example(
    edges=[(0, 1), (1, 2), (2, 3), (5, 4)],
    memberships=[(0, 0), (3, 1), (3, 2), (0, 2), (4, 3), (11, 4)],
)
def test_attribute_distance_matches_networkx_and_per_source_loop(edges, memberships):
    san = _build_san(edges, memberships)
    frozen = san.freeze()
    graphs = {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}
    attributes = sorted(san.attribute_nodes())
    for first in attributes:
        for second in attributes:
            for max_depth in DEPTHS:
                case = (first, second, max_depth)
                expected = networkx_attribute_distance(san, *case)
                assert per_source_attribute_distance(san, *case) == expected
                for name, graph in graphs.items():
                    assert attribute_distance(graph, *case) == expected, (name, case)
                portable = attribute_distance.__wrapped__(frozen, *case)
                assert portable == expected, ("portable-on-frozen", case)

"""Differential oracle for the Section 4.2 fine-grained reciprocity.

On hypothesis pairs of snapshots — ``later`` adds and removes links and
drops users — the counts ``r_{s,a}`` must agree with a networkx reference
that walks every one-way link ``u -> v`` of ``earlier`` (``v -> u`` absent):

* ``s`` is ``len(nx.common_neighbors(U, u, v))`` on the undirected
  projection ``U`` of ``earlier``, capped.  networkx leaves ``u`` and ``v``
  out, as ``SAN.common_social_neighbors`` does, self-loops included;
* ``a`` is the number of attributes the two users share, bucketed 0, 1, >=2;
* the link counts as reciprocated when ``later`` has ``v -> u``.

``max_links`` keeps the first one-way links in the edge order of
``earlier``'s frozen view, which every input is measured on: for a mutable
``earlier`` that is not its own ``social_edges()`` order, which follows set
iteration (and, for str labels, the hash seed).  Every backend pair is
checked: mutable, frozen, mmap-backed and canonical inputs on either side.
``later`` is inserted in the reverse order, so frozen pairs do not share a
label order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.experiments.artifacts import canonical_frozen  # noqa: E402
from repro.graph import SAN  # noqa: E402
from repro.metrics.reciprocity import fine_grained_reciprocity  # noqa: E402

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "fine_grained_reciprocity",
)

NUM_USERS = 10

users = st.integers(0, NUM_USERS - 1)
edge_lists = st.lists(st.tuples(users, users), max_size=40)
membership_lists = st.lists(st.tuples(users, st.integers(0, 3)), max_size=24)

#: A reciprocal triangle plus one-way links from a self-looped hub; users 3
#: and 4 share three cities, which still buckets as ">= 2".
HUB_EDGES = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (3, 3), (3, 0), (3, 1), (4, 3)]
HUB_MEMBERSHIPS = [(0, 0), (3, 0), (3, 1), (3, 2), (1, 1), (4, 0), (4, 1), (4, 2)]


def _label(user, string_labels):
    return f"user{user}" if string_labels else user


def _snapshots(edges, memberships, added, removed, dropped, string_labels):
    """``(earlier, later)`` mutable SANs plus the raw data the oracle reads."""
    label = [_label(user, string_labels) for user in range(NUM_USERS)]
    earlier = SAN()
    for user in range(NUM_USERS):
        earlier.add_social_node(label[user])
    for source, target in edges:
        earlier.add_social_edge(label[source], label[target])
    attributes = {label[user]: set() for user in range(NUM_USERS)}
    for user, value in memberships:
        earlier.add_attribute_edge(label[user], f"city:{value}", attr_type="city")
        attributes[label[user]].add(f"city:{value}")

    kept = [edge for position, edge in enumerate(edges) if position not in removed]
    later_edges = [
        (label[source], label[target])
        for source, target in kept + added
        if source not in dropped and target not in dropped
    ]
    later = SAN()
    for user in reversed(range(NUM_USERS)):
        if user not in dropped:
            later.add_social_node(label[user])
    for source, target in reversed(later_edges):
        later.add_social_edge(source, target)
    return earlier, later, later_edges, attributes


def _backends(san: SAN):
    frozen = san.freeze()
    return {
        "mutable": san,
        "frozen": frozen,
        "mmap": spill_to_mmap(frozen),
        "canonical": canonical_frozen(san),
    }


def _oracle(edge_order, later_edges, attributes, cap, max_links):
    directed = nx.DiGraph(edge_order)
    undirected = nx.Graph(edge_order)
    later = nx.DiGraph(later_edges)
    one_way = [(u, v) for u, v in edge_order if not directed.has_edge(v, u)]
    if max_links is not None:
        one_way = one_way[:max_links]
    counts = {}
    for u, v in one_way:
        social = min(len(nx.common_neighbors(undirected, u, v)), cap)
        bucket = min(len(attributes[u] & attributes[v]), 2)
        reciprocated, total = counts.get((social, bucket), (0, 0))
        counts[(social, bucket)] = (reciprocated + int(later.has_edge(v, u)), total + 1)
    return counts


@given(
    edges=edge_lists,
    memberships=membership_lists,
    added=edge_lists,
    removed=st.sets(st.integers(0, 39), max_size=8),
    dropped=st.sets(users, max_size=3),
    string_labels=st.booleans(),
    cap=st.sampled_from([50, 1]),
    max_links=st.none() | st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
@example(
    edges=HUB_EDGES,
    memberships=HUB_MEMBERSHIPS,
    added=[(0, 3), (3, 4)],
    removed={1},
    dropped={2},
    string_labels=False,
    cap=50,
    max_links=None,
)
@example(
    # 3 -> 0 gains two common neighbours (1 and 4), above the cap of 1.
    edges=HUB_EDGES + [(4, 0), (4, 1)],
    memberships=HUB_MEMBERSHIPS,
    added=[(0, 3)],
    removed=set(),
    dropped=set(),
    string_labels=True,
    cap=1,
    max_links=2,
)
def test_matches_the_networkx_reference(
    edges, memberships, added, removed, dropped, string_labels, cap, max_links
):
    earlier, later, later_edges, attributes = _snapshots(
        edges, memberships, added, removed, dropped, string_labels
    )
    later_backends = _backends(later)
    for earlier_name, earlier_graph in _backends(earlier).items():
        edge_order = list(earlier_graph.freeze().social_edges())
        assert sorted(map(repr, edge_order)) == sorted(map(repr, earlier.social_edges()))
        expected = _oracle(edge_order, later_edges, attributes, cap, max_links)
        for later_name, later_graph in later_backends.items():
            result = fine_grained_reciprocity(
                earlier_graph, later_graph, max_common_social=cap, max_links=max_links
            )
            assert result.counts == expected, (earlier_name, later_name)

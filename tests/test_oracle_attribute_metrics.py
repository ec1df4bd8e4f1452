"""Counting oracles for the attribute metrics and per-type clustering (Section 4.1).

Every reference below counts straight off the SAN's edge lists — the
directed social links, the attribute links and each attribute node's
type — with no degree array, CSR row or sparse product:

* ``attribute_type_counts``: attribute nodes per type, keys in the order
  each type first appears among the attribute nodes;
* ``attribute_link_counts_by_type``: attribute links per type, in the same
  key order, types without links left out;
* ``top_attribute_nodes``: attribute nodes by member count, descending, ties
  in attribute-node order, optionally of one type (``[]`` for an unknown
  type);
* ``directed_links_among``: ``L(S)``, the directed links ``u -> v`` with
  ``u != v`` and both ends in ``S`` (labels that are not users ignored);
* ``average_clustering_for_attribute_type`` / ``..._by_attribute_type``: the
  mean over a type's attribute nodes of ``c(a) = L(members) / (k (k - 1))``
  (0 when ``k < 2``), and 0.0 for an unknown type.

The inputs are the random SANs and edge cases of ``tests/san_cases.py``,
each given mutable, frozen and mmap-backed.
"""

import math
import random
from collections import Counter

import pytest
from san_cases import all_cases

from repro.algorithms.clustering import (
    average_clustering_by_attribute_type,
    average_clustering_for_attribute_type,
    directed_links_among,
)
from repro.graph import spill_to_mmap
from repro.metrics.attribute_metrics import (
    attribute_link_counts_by_type,
    attribute_type_counts,
    top_attribute_nodes,
)

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "top_attribute_nodes",
    "attribute_type_counts",
    "attribute_link_counts_by_type",
    "directed_links_among",
    "average_clustering_by_attribute_type",
    "average_clustering_for_attribute_type",
)

CASES = all_cases()


def _backends(san):
    frozen = san.freeze()
    return {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}


class Reference:
    """Counters over one SAN's edge lists."""

    def __init__(self, san):
        self.users = list(san.social_nodes())
        self.attributes = list(san.attribute_nodes())
        self.type_of = {a: san.attribute_type(a) for a in self.attributes}
        self.links = set(san.social_edges())
        self.members = {a: set() for a in self.attributes}
        for user, attribute in san.attribute_edges():
            self.members[attribute].add(user)

    def type_order(self):
        return list(dict.fromkeys(self.type_of[a] for a in self.attributes))

    def type_counts(self):
        counts = Counter(self.type_of.values())
        return [(t, counts[t]) for t in self.type_order()]

    def link_counts(self):
        counts = Counter()
        for attribute, members in self.members.items():
            counts[self.type_of[attribute]] += len(members)
        return [(t, counts[t]) for t in self.type_order() if counts[t]]

    def top(self, attr_type, count):
        candidates = [
            a for a in self.attributes if attr_type is None or self.type_of[a] == attr_type
        ]
        ranked = sorted(candidates, key=lambda a: -len(self.members[a]))  # stable
        return [(a, len(self.members[a])) for a in ranked[:count]]

    def links_among(self, nodes):
        inside = set(nodes) & set(self.users)
        return sum(1 for u, v in self.links if u != v and u in inside and v in inside)

    def clustering(self, attribute):
        k = len(self.members[attribute])
        if k < 2:
            return 0.0
        return self.links_among(self.members[attribute]) / (k * (k - 1))

    def type_average(self, attr_type):
        values = [self.clustering(a) for a in self.attributes if self.type_of[a] == attr_type]
        return sum(values) / len(values) if values else 0.0


def _close(actual, expected):
    return math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("name,san", CASES, ids=[name for name, _ in CASES])
def test_type_and_link_counts_match_edge_counters(name, san):
    reference = Reference(san)
    for backend, graph in _backends(san).items():
        assert list(attribute_type_counts(graph).items()) == reference.type_counts(), backend
        links = attribute_link_counts_by_type(graph)
        assert list(links.items()) == reference.link_counts(), backend


@pytest.mark.parametrize("name,san", CASES, ids=[name for name, _ in CASES])
def test_top_attribute_nodes_match_a_stable_sort_of_member_counts(name, san):
    reference = Reference(san)
    for backend, graph in _backends(san).items():
        for attr_type in [None, *reference.type_order(), "no-such-type"]:
            for count in (0, 1, 3, 10, 1000):
                expected = reference.top(attr_type, count)
                actual = top_attribute_nodes(graph, attr_type=attr_type, count=count)
                assert actual == expected, (backend, attr_type, count)


@pytest.mark.parametrize("name,san", CASES, ids=[name for name, _ in CASES])
def test_directed_links_among_match_brute_force(name, san):
    reference = Reference(san)
    rng = random.Random(7)
    subsets = [[], reference.users, ["not-a-user"], reference.attributes[:2]]
    for size in (1, 2, 5, 20):
        if size <= len(reference.users):
            subsets.append(rng.sample(reference.users, size) + ["not-a-user"])
    subsets.extend(reference.members.values())
    for backend, graph in _backends(san).items():
        for subset in subsets:
            expected = reference.links_among(subset)
            assert directed_links_among(graph, subset) == expected, (backend, subset)


@pytest.mark.parametrize("name,san", CASES, ids=[name for name, _ in CASES])
def test_per_type_clustering_matches_brute_force(name, san):
    reference = Reference(san)
    types = sorted(reference.type_order())
    for backend, graph in _backends(san).items():
        by_type = average_clustering_by_attribute_type(graph)
        assert list(by_type) == types, backend
        for attr_type in types:
            expected = reference.type_average(attr_type)
            assert _close(by_type[attr_type], expected), (backend, attr_type)
            single = average_clustering_for_attribute_type(graph, attr_type)
            assert _close(single, expected), (backend, attr_type)
        assert average_clustering_for_attribute_type(graph, "no-such-type") == 0.0


def test_the_sweep_reaches_clustered_attributes():
    """Guard the oracle's power: some swept attribute has ``c(a) > 0``."""
    assert any(
        Reference(san).clustering(attribute) > 0
        for _, san in CASES
        for attribute in san.attribute_nodes()
    )

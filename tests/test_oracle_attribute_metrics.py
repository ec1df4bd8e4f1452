"""Counting oracles for the attribute metrics and per-type clustering (Section 4.1).

Every reference below counts straight off the SAN's edge lists — the
directed social links, the attribute links and each attribute node's
type — with no degree array, CSR row or sparse product:

* ``top_attribute_nodes``: attribute nodes by member count, descending, ties
  in attribute-node order, optionally of one type (``[]`` for an unknown
  type);
* ``L(S)``, the directed links ``u -> v`` with ``u != v`` and both ends in
  ``S``, which the clustering kernels count for every row of an incidence
  matrix at once (checked on random user sets and every attribute's
  members);
* ``average_clustering_by_attribute_type``: for each type, sorted, the mean
  over its attribute nodes of ``c(a) = L(members) / (k (k - 1))`` (0 when
  ``k < 2``).

The inputs are the random SANs and edge cases of ``tests/san_cases.py``,
each given mutable, frozen and mmap-backed.
"""

import math
import random

import numpy as np
import pytest
from san_cases import all_cases, spill_to_mmap
from scipy import sparse

from repro.algorithms.clustering import (
    _links_per_row,
    _loop_free_directed_matrix,
    average_clustering_by_attribute_type,
)
from repro.metrics.attribute_metrics import top_attribute_nodes

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "top_attribute_nodes",
    "average_clustering_by_attribute_type",
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

    def top(self, attr_type, count):
        candidates = [
            a for a in self.attributes if attr_type is None or self.type_of[a] == attr_type
        ]
        ranked = sorted(candidates, key=lambda a: -len(self.members[a]))  # stable
        return [(a, len(self.members[a])) for a in ranked[:count]]

    def links_among(self, nodes):
        inside = set(nodes)
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
    subsets = [[], reference.users]
    for size in (1, 2, 5, 20):
        if size <= len(reference.users):
            subsets.append(rng.sample(reference.users, size))
    subsets.extend(reference.members.values())
    expected = [reference.links_among(subset) for subset in subsets]
    for backend, graph in _backends(san).items():
        frozen = graph.freeze()
        rows = [[frozen.social.index_of(user) for user in subset] for subset in subsets]
        incidence = sparse.csr_matrix(
            (
                np.ones(sum(map(len, rows)), dtype=np.int64),
                (
                    np.repeat(np.arange(len(rows)), [len(row) for row in rows]),
                    np.array([i for row in rows for i in row], dtype=np.int64),
                ),
            ),
            shape=(len(rows), frozen.number_of_social_nodes()),
        )
        links = _links_per_row(incidence, _loop_free_directed_matrix(frozen))
        assert links.tolist() == expected, backend


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


def test_the_sweep_reaches_clustered_attributes():
    """Guard the oracle's power: some swept attribute has ``c(a) > 0``."""
    assert any(
        Reference(san).clustering(attribute) > 0
        for _, san in CASES
        for attribute in san.attribute_nodes()
    )

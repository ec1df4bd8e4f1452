"""Closed-form oracles for the Sybil and anonymity applications (Figure 19).

The two operations are Monte-Carlo or random-compromise experiments, so
each is checked where its answer is known in closed form, exactly or in
distribution (Monte-Carlo estimates within five standard errors):

* ``sybil.identities_vs_compromised`` — on the complete graph ``K_n``
  without a degree cap, any ``c`` compromised users leave ``c (n - c)``
  attack edges; with a cap ``d`` each compromised row keeps ``d`` of its
  ``n - 1`` neighbours uniformly, so the mean is ``c d (n - c) / (n - 1)``.
  On any uncapped graph with ``m`` undirected links the mean over uniform
  compromise sets is ``2 m c (n - c) / (n (n - 1))``.  The identities are
  ``attack edges * w``.
* ``anonymity.end_to_end_attack_probability`` — without a cap, the share of
  built circuits whose first and last relays are compromised is exact from
  the walk's transition matrix ``P``: with ``h`` uniform over honest users,
  ``(h P diag(1_C) P^(L-1) 1_C) / (h P^L 1)``.  On ``K_n`` that is
  ``c / (n - 1)`` for one hop and ``c (c - 1) / (n - 1)^2`` for two.

The random SANs and edge cases of ``tests/san_cases.py`` are swept, each
given mutable, frozen and mmap-backed.
"""

import math

import numpy as np
import pytest
from san_cases import all_cases, spill_to_mmap

from repro.applications.anonymity import AnonymityParameters, end_to_end_attack_probability
from repro.applications.sybil import SybilLimitParameters, sybil_identities_vs_compromised
from repro.graph import san_from_edge_lists

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "sybil.identities_vs_compromised",
    "anonymity.end_to_end_attack_probability",
)

CASES = all_cases()
IDS = [name for name, _ in CASES]
#: Monte-Carlo estimates must land within this many standard errors.
Z = 5.0


def _backends(san):
    frozen = san.freeze()
    return {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}


def complete_graph(n):
    return san_from_edge_lists([(i, j) for i in range(n) for j in range(n) if i != j])


def star(leaves):
    return san_from_edge_lists([(0, leaf) for leaf in range(1, leaves + 1)])


def _undirected(san):
    """Loop-free undirected adjacency sets, in user order."""
    users = list(san.social_nodes())
    neighbours = {u: set() for u in users}
    for u, v in san.social_edges():
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    return users, neighbours


def _assert_mean(samples, expected, context):
    samples = np.asarray(samples, dtype=np.float64)
    error = samples.std(ddof=1) / math.sqrt(samples.size) if samples.size > 1 else 0.0
    assert abs(samples.mean() - expected) <= Z * error + 1e-9, (context, samples.mean(), expected)


# ----------------------------------------------------------------------
# Sybil identities
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 7, 12])
def test_sybil_attack_edges_on_complete_graphs(n):
    counts = [0, 1, n // 2, n - 1, n, n + 5]
    params = SybilLimitParameters(walk_length=7, sybils_per_attack_edge=2.5)
    for backend, graph in _backends(complete_graph(n)).items():
        for seed in range(5):
            results = sybil_identities_vs_compromised(graph, counts, params=params, rng=seed)
            for count, result in zip(counts, results):
                c = min(count, n)
                assert result.num_compromised == c, backend
                assert result.num_attack_edges == c * (n - c), (backend, count)
                assert result.num_sybil_identities == 2.5 * c * (n - c), backend


def test_sybil_capped_attack_edges_mean_on_a_complete_graph():
    n, cap, c = 12, 3, 4
    params = SybilLimitParameters(degree_bound=cap)
    for backend, graph in _backends(complete_graph(n)).items():
        samples = [
            sybil_identities_vs_compromised(graph, [c], params=params, rng=seed)[0].num_attack_edges
            for seed in range(300)
        ]
        assert max(samples) <= c * cap, backend
        _assert_mean(samples, c * cap * (n - c) / (n - 1), backend)


@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_sybil_attack_edge_mean_over_compromise_sets(name, san):
    users, neighbours = _undirected(san)
    n = len(users)
    links = sum(len(row) for row in neighbours.values()) // 2
    c = n // 3
    for backend, graph in _backends(san).items():
        samples = []
        for seed in range(200):
            (result,) = sybil_identities_vs_compromised(graph, [c], rng=seed)
            assert result.num_compromised == c, backend
            assert result.num_sybil_identities == 10.0 * result.num_attack_edges, backend
            samples.append(result.num_attack_edges)
        expected = 2 * links * c * (n - c) / (n * (n - 1)) if n > 1 else 0.0
        _assert_mean(samples, expected, backend)


# ----------------------------------------------------------------------
# Anonymity
# ----------------------------------------------------------------------
def exact_attack_probability(san, compromised, circuit_length):
    """The Markov-chain share of built circuits with both end relays compromised."""
    users, neighbours = _undirected(san)
    index = {u: i for i, u in enumerate(users)}
    n = len(users)
    transition = np.zeros((n, n))
    for u, row in neighbours.items():
        for v in row:
            transition[index[u], index[v]] = 1.0 / len(row)
    bad = np.zeros(n)
    bad[[index[u] for u in compromised if u in index]] = 1.0
    honest = 1.0 - bad
    if not honest.any():
        return 0.0
    start = honest / honest.sum()
    survive = np.linalg.matrix_power(transition, circuit_length).sum(axis=1)
    built = start @ survive
    if built == 0:
        return 0.0
    tail = np.linalg.matrix_power(transition, circuit_length - 1) @ bad
    return float((start @ transition) @ (bad * tail) / built)


def _assert_attack_share(graph, san, compromised, length, circuits, seed, context):
    params = AnonymityParameters(circuit_length=length, num_circuits=circuits)
    share = end_to_end_attack_probability(graph, compromised, params=params, rng=seed)
    expected = exact_attack_probability(san, compromised, length)
    error = math.sqrt(max(expected * (1 - expected), 1e-12) / circuits)
    assert abs(share - expected) <= Z * error + 1e-9, (context, share, expected)


def test_attack_probability_on_a_complete_graph():
    n, c = 10, 4
    complete = complete_graph(n)
    compromised = set(range(c))
    assert math.isclose(exact_attack_probability(complete, compromised, 1), c / (n - 1))
    assert math.isclose(
        exact_attack_probability(complete, compromised, 2), c * (c - 1) / (n - 1) ** 2
    )
    for backend, graph in _backends(complete).items():
        for length in (1, 2, 3):
            _assert_attack_share(graph, complete, compromised, length, 20_000, 5, backend)
        assert end_to_end_attack_probability(graph, set(), rng=1) == 0.0
        assert end_to_end_attack_probability(graph, set(range(n)), rng=1) == 0.0


def test_attack_probability_on_a_capped_star():
    # Honest initiators are the leaves; a one-hop circuit's only relay is
    # the compromised centre, whatever the cap keeps of the centre's row.
    params = AnonymityParameters(circuit_length=1, degree_bound=2, num_circuits=500)
    for backend, graph in _backends(star(8)).items():
        assert end_to_end_attack_probability(graph, {0}, params=params, rng=3) == 1.0, backend


@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_attack_probability_matches_the_walk_chain(name, san):
    users = list(san.social_nodes())
    compromised = set(users[::3])
    for backend, graph in _backends(san).items():
        for length in (1, 3):
            _assert_attack_share(graph, san, compromised, length, 4000, 11, (backend, length))

"""Theorem 3 as a gate: Algorithm 2 stays within Hoeffding's half-width.

Appendix A's estimator averages ``K`` independent triple scores ``F / 2`` in
``[0, 1]`` whose mean is the population's average clustering coefficient
``C``.  By Hoeffding, ``P(|estimate - C| > eps) <= 2 exp(-2 K eps^2)``, which
is ``1 / nu`` at ``eps = sqrt(ln(2 nu) / (2 K))``.  At ``K = 2000`` and
``nu = 10^6`` every check below fails with probability at most 1e-6.

The exact ``C`` comes from the clustering kernels that
``tests/test_oracle_clustering.py`` checks against networkx.  Inputs are
hypothesis SANs with integer or string labels, self-loops and isolated users,
plus a reciprocal 4-clique whose members share one attribute (``C = 1`` for
both populations); each runs on the mutable SAN, its freeze, and an
mmap-backed spill of the freeze.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

from repro.algorithms import (
    approximate_average_clustering,
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
)
from repro.graph import SAN

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "approximate_average_clustering",
)

NUM_USERS = 12
SAMPLES = 2000
NU = 1e6
HALF_WIDTH = math.sqrt(math.log(2 * NU) / (2 * SAMPLES))

edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, NUM_USERS - 1)),
    max_size=40,
)
membership_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, 3)),
    max_size=24,
)
CLIQUE = [(source, target) for source in range(4) for target in range(4) if source != target]


def _build_san(edges, memberships, string_labels) -> SAN:
    def label(user):
        return f"user{user}" if string_labels else user

    san = SAN()
    for user in range(NUM_USERS):
        san.add_social_node(label(user))
    for source, target in edges:
        san.add_social_edge(label(source), label(target))
    for user, value in memberships:
        san.add_attribute_edge(label(user), f"city:{value}", attr_type="city")
    return san


@given(edge_lists, membership_lists, st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
@example(
    edges=CLIQUE,
    memberships=[(user, 0) for user in range(4)],
    string_labels=False,
    seed=2012,
)
@example(
    edges=CLIQUE + [(0, 0), (5, 6)],
    memberships=[(user, 0) for user in range(4)],
    string_labels=True,
    seed=835,
)
def test_estimate_is_within_the_theorem_3_half_width(edges, memberships, string_labels, seed):
    san = _build_san(edges, memberships, string_labels)
    exact = {
        "social": average_social_clustering_coefficient(san),
        "attribute": average_attribute_clustering_coefficient(san),
    }
    populations = {"social": None, "attribute": list(san.attribute_nodes())}
    frozen = san.freeze()
    for backend, graph in (("mutable", san), ("frozen", frozen), ("mmap", spill_to_mmap(frozen))):
        for kind, population in populations.items():
            estimate = approximate_average_clustering(
                graph, population=population, num_samples=SAMPLES, rng=seed
            )
            assert abs(estimate - exact[kind]) <= HALF_WIDTH, (
                backend, kind, estimate, exact[kind],
            )
